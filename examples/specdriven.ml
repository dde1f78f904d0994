(** Spec-driven development, the paper's LCL workflow.

    Run with: [dune exec examples/specdriven.exe]

    "We can use annotations in LCL specifications, or directly in the
    source code as syntactic comments."  This example writes an interface
    specification in the paper's bare-word LCL notation, then checks two
    candidate implementations and a client against it. *)

let spec =
  {|typedef struct _stack { int depth; /*@null@*/ /*@only@*/ struct _cell *top; } stack;
struct _cell { int value; /*@null@*/ /*@only@*/ struct _cell *below; };

only stack *stack_create(void);
void stack_push(stack *s, int value);
int stack_pop(stack *s);
int stack_empty(temp stack *s);
void stack_destroy(only stack *s);
|}

let good_impl =
  {|stack *stack_create(void)
{
  stack *s = (stack *) malloc(sizeof(stack));
  if (s == NULL) { exit(EXIT_FAILURE); }
  s->depth = 0;
  s->top = NULL;
  return s;
}

void stack_push(stack *s, int value)
{
  struct _cell *c = (struct _cell *) malloc(sizeof(struct _cell));
  if (c == NULL) { exit(EXIT_FAILURE); }
  c->value = value;
  c->below = s->top;
  s->top = c;
  s->depth = s->depth + 1;
}

int stack_pop(stack *s)
{
  int v;
  struct _cell *c;
  assert(s->top != NULL);
  c = s->top;
  v = c->value;
  /* the classic pop idiom moves ownership out of an only field in a way
     the checker cannot see; the paper's own answer is the stylized
     suppression comment (Section 7 reports 75 of them) */
  /*@i@*/ s->top = c->below;
  c->below = NULL;
  /*@i@*/ free(c);
  s->depth = s->depth - 1;
  return v;
}

int stack_empty(stack *s)
{
  return s->top == NULL;
}

static void cell_drop(/*@null@*/ /*@only@*/ struct _cell *c)
{
  if (c != NULL) {
    if (c->below != NULL) {
      cell_drop(c->below);
    }
    free(c);
  }
}

void stack_destroy(stack *s)
{
  cell_drop(s->top);
  free(s);
}
|}

(* The buggy variant forgets to release the popped cell and destroys the
   stack without its cells. *)
let buggy_impl =
  {|stack *stack_create(void)
{
  stack *s = (stack *) malloc(sizeof(stack));
  if (s == NULL) { exit(EXIT_FAILURE); }
  s->depth = 0;
  s->top = NULL;
  return s;
}

void stack_push(stack *s, int value)
{
  struct _cell *c = (struct _cell *) malloc(sizeof(struct _cell));
  if (c == NULL) { exit(EXIT_FAILURE); }
  c->value = value;
  c->below = s->top;
  s->top = c;
  s->depth = s->depth + 1;
}

int stack_pop(stack *s)
{
  int v;
  struct _cell *c;
  assert(s->top != NULL);
  c = s->top;
  v = c->value;
  s->top = c->below;
  s->depth = s->depth - 1;
  return v;
}

int stack_empty(stack *s)
{
  return s->top == NULL;
}

void stack_destroy(stack *s)
{
  free(s);
}
|}

let client =
  {|int main(void)
{
  stack *s = stack_create();
  int total;
  total = 0;
  stack_push(s, 1);
  stack_push(s, 2);
  stack_push(s, 3);
  while (!stack_empty(s)) {
    total = total + stack_pop(s);
  }
  printf("total %d\n", total);
  stack_destroy(s);
  return 0;
}
|}

let check_against_spec ~name impl =
  Printf.printf "== %s checked against the LCL specification ==\n" name;
  let flags = Annot.Flags.default in
  let prog = Stdspec.environment ~flags () in
  ignore (Sema.analyze_spec_string ~flags ~into:prog ~file:"stack.lcl" spec);
  let r = Check.run ~flags ~into:prog [ ("stack.c", impl ^ "\n" ^ client) ] in
  (match r.Check.reports with
  | [] -> print_endline "clean."
  | ds -> List.iter (fun d -> print_endline (Cfront.Diag.to_string d)) ds);
  if r.Check.suppressed <> [] then
    Printf.printf "(%d message(s) suppressed by stylized comments)\n"
      (List.length r.Check.suppressed);
  print_newline ();
  r

let () =
  print_endline "The interface, in the paper's LCL notation:";
  print_endline "------------------------------------------------------";
  print_string spec;
  print_endline "------------------------------------------------------\n";
  ignore (check_against_spec ~name:"correct implementation" good_impl);
  ignore (check_against_spec ~name:"buggy implementation" buggy_impl);
  (* and run the correct one for real *)
  print_endline "== running the correct implementation ==";
  let prog = Stdspec.environment () in
  ignore (Sema.analyze_spec_string ~into:prog ~file:"stack.lcl" spec);
  ignore
    (Sema.analyze_string ~into:prog ~file:"stack.c" (good_impl ^ "\n" ^ client));
  let rt = Rtcheck.run prog in
  print_string rt.Rtcheck.output;
  Printf.printf "run-time errors: %d, leaks: %d\n"
    (List.length rt.Rtcheck.errors)
    (List.length rt.Rtcheck.leaks)
