(** olbench — the OCaml half of the end-to-end benchmark.

    {v
    olbench gen    --workload W --seed N --dir D   write inputs + answers
    olbench verify --dir D --json F [--text T] [--lib L]
    olbench trace  --dir D [--expect T]            in-process layer trace
    v}

    [gen] writes the workload's C sources under [D/src] and its known
    answers to [D/answers.json]: the seeded bugs and the findings the
    differential oracle ({!Difftest.classify}) leaves unexcused, the
    buggy blocks of the long procedure, or the declared annotation set
    that the stripped corpus must re-infer.  The answers come from the
    generators and the run-time oracle, never from the static checker.

    [verify] scores one [olclint -json] output (and, with [--text], the
    plain output of the same run, which must render the same records
    byte for byte) against those answers.

    [trace] runs [olclint]'s batch pipeline in-process three times over
    the same files: plain, with a span around every layer's public call,
    and plain again; it prints the per-layer metrics as one JSON line.
    run.py runs it; see README.md for the metric definitions. *)

module J = Telemetry.Json
module Diag = Cfront.Diag

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = Cold_corpus | Long_proc | Annotate | Edit_loop

let workload_of_string = function
  | "cold-corpus" -> Cold_corpus
  | "long-proc" -> Long_proc
  | "annotate" -> Annotate
  | "edit-loop" -> Edit_loop
  | w -> failwith ("unknown workload " ^ w)

(* the olclint flags each workload runs under (beyond -j 1) *)
let flag_args = function
  | Annotate -> [ "+xproc"; "+inferconstraints" ]
  | Cold_corpus | Long_proc | Edit_loop -> []

let flags_of args =
  match Annot.Flags.apply_all Annot.Flags.default args with
  | Ok f -> f
  | Error _ -> failwith "bad flag set"

(* corpus sizes: (modules, functions per module) or blocks *)
let cold_modules = 150
let cold_modules_small = 15
let annotate_modules = 15
let edit_modules = 40
let fns_per_module = 62
let long_blocks = 1000
let long_blocks_small = 250
let edit_requests = 32
let interface_every = 8

(* The run-time error class each seeded bug kind surfaces as — the
   vocabulary of {!Check.Errclass.witnessed}, as the difftest oracle
   names it. *)
let class_of_bug = function
  | Progen.Bleak | Progen.Bloop_leak | Progen.Brealloc_lost | Progen.Boom_leak
  | Progen.Brefcount_leak ->
      "leak"
  | Progen.Buse_after_free | Progen.Bloop_use_after_free
  | Progen.Brefcount_use | Progen.Bxproc_callee_free
  | Progen.Bxproc_escape_store ->
      "use-after-free"
  | Progen.Bdouble_free | Progen.Bxproc_callee_free_df
  | Progen.Bxproc_cond_release ->
      "double-free"
  | Progen.Bnull_deref | Progen.Bloop_null_deref -> "null-deref"
  | Progen.Buse_undef -> "use-undef"
  | Progen.Bfree_offset -> "free-offset"
  | Progen.Bfree_static -> "free-static"
  | Progen.Bglobal_leak -> Rtcheck.Heap.class_global_leak

let xproc_kinds =
  [
    Progen.Bxproc_callee_free; Progen.Bxproc_callee_free_df;
    Progen.Bxproc_cond_release; Progen.Bxproc_escape_store;
  ]

(* ------------------------------------------------------------------ *)
(* The long-procedure generator                                        *)
(* ------------------------------------------------------------------ *)

(* One [main] of [blocks] independent alloc / guard / use / release
   blocks; a few blocks (chosen by [seed]) leak, use after free or free
   twice.  Returns the text and, per buggy block, its error class and
   first/last line: the generator's own answer key. *)
let long_proc ~seed ~blocks =
  let rng = Random.State.make [| seed; blocks |] in
  let nbugs = max 3 (blocks / 160) in
  let buggy = Hashtbl.create 16 in
  let classes = [| "leak"; "use-after-free"; "double-free" |] in
  while Hashtbl.length buggy < nbugs do
    let k = Random.State.int rng blocks in
    if not (Hashtbl.mem buggy k) then
      Hashtbl.replace buggy k classes.(Hashtbl.length buggy mod 3)
  done;
  let b = Buffer.create (blocks * 200) in
  let line = ref 1 in
  let pf fmt =
    Printf.ksprintf
      (fun s ->
        String.iter (fun c -> if c = '\n' then incr line) s;
        Buffer.add_string b s)
      fmt
  in
  let answers = ref [] in
  pf "/* long procedure -- generated, seed %d */\n\nint main(void)\n{\n" seed;
  pf "  int total;\n  total = 0;\n";
  for k = 0 to blocks - 1 do
    let p = Printf.sprintf "p%d" k in
    let first = !line in
    let bug = Hashtbl.find_opt buggy k in
    pf "  {\n";
    pf "    char *%s = (char *) malloc(%d);\n" p (8 + Random.State.int rng 56);
    pf "    if (%s == NULL) {\n      return 1;\n    }\n" p;
    pf "    %s[0] = '%c';\n" p (Char.chr (97 + Random.State.int rng 26));
    (match bug with
    | Some "leak" -> pf "    total = total + %s[0];\n" p
    | Some "use-after-free" ->
        pf "    free(%s);\n    total = total + %s[0];\n" p p
    | Some _ -> pf "    total = total + %s[0];\n    free(%s);\n    free(%s);\n" p p p
    | None -> pf "    total = total + %s[0];\n    free(%s);\n" p p);
    pf "  }\n";
    Option.iter
      (fun cls -> answers := (cls, first, !line - 1) :: !answers)
      bug
  done;
  pf "  return total;\n}\n";
  (Buffer.contents b, List.rev !answers)

(* ------------------------------------------------------------------ *)
(* Annotation sets                                                     *)
(* ------------------------------------------------------------------ *)

(* The (function, slot, word) triples of the kinds inference can
   synthesize, over the named functions.  [select] picks which
   annotation sets count: declared ones (implicit [only] excluded) for
   the answer key, inferred-marked ones when reading olclint's dumped
   interface library. *)
let slot_words ~select (prog : Sema.program) names =
  let words (e : Sema.eannot) =
    if not (select e) then []
    else
      let an = e.Sema.an in
      (match an.Annot.an_null with
      | Some Annot.Null -> [ "null" ]
      | Some Annot.NotNull -> [ "notnull" ]
      | _ -> [])
      @ (match an.Annot.an_def with Some Annot.Out -> [ "out" ] | _ -> [])
      @
      match an.Annot.an_alloc with
      | Some Annot.Only when not e.Sema.alloc_implicit -> [ "only" ]
      | _ -> []
  in
  List.concat_map
    (fun name ->
      match Hashtbl.find_opt prog.Sema.p_funcs name with
      | None -> []
      | Some fs ->
          List.map (fun w -> (name, "ret", w)) (words fs.Sema.fs_ret_annots)
          @ List.concat
              (List.mapi
                 (fun i (p : Sema.param) ->
                   List.map
                     (fun w -> (name, Printf.sprintf "p%d" i, w))
                     (words p.Sema.pr_annots))
                 fs.Sema.fs_params))
    names
  |> List.sort_uniq compare

let analyze_texts ~flags files =
  let prog = Stdspec.environment ~flags () in
  List.iter
    (fun (file, text) ->
      let typedefs =
        Hashtbl.fold (fun k _ acc -> k :: acc) prog.Sema.p_typedefs []
      in
      let tu = Cfront.Parser.parse_string ~typedefs ~file text in
      ignore (Sema.analyze ~flags ~into:prog tu))
    files;
  prog

let defined_names prog =
  List.map (fun ((fs : Sema.funsig), _) -> fs.Sema.fs_name) (Sema.fundefs prog)

(* ------------------------------------------------------------------ *)
(* Files and JSON helpers                                              *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

let json_of_file path =
  match J.of_string (read_file path) with
  | Ok j -> j
  | Error msg -> failwith (path ^ ": " ^ msg)

let member_exn k j =
  match J.member k j with Some v -> v | None -> failwith ("missing " ^ k)

let str k j = Option.get (J.to_string_opt (member_exn k j))
let int k j = Option.get (J.to_int_opt (member_exn k j))

let list k j =
  match J.member k j with Some (J.List l) -> l | _ -> []

let strings k j = List.filter_map J.to_string_opt (list k j)

let count_lines text =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) text;
  !n

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

(* Replace the first occurrence of [what] in [text]. *)
let replace_once ~what ~with_ text =
  let wl = String.length what and tl = String.length text in
  let rec find i =
    if i + wl > tl then failwith ("edit anchor not found: " ^ what)
    else if String.sub text i wl = what then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub text 0 i ^ with_ ^ String.sub text (i + wl) (tl - i - wl)

(* The edit-loop script: [edit_requests] edits, every
   [interface_every]-th an interface edit, each toggling one module
   between two variants that leave every verdict unchanged.  Body edit:
   change the increment in [mK_bump] (tier patched).  Interface edit:
   declare [mK_weight]'s parameter [notnull], which it already is
   implicitly (tier rebuilt). *)
let edit_script ~seed files =
  let rng = Random.State.make [| seed; 7 |] in
  let texts = Hashtbl.create 64 in
  List.iter (fun (n, t) -> Hashtbl.replace texts n t) files;
  let modules =
    List.filter (fun (n, _) -> n <> "driver.c") files |> List.length
  in
  let body_on = Hashtbl.create 16 and sig_on = Hashtbl.create 16 in
  List.init edit_requests (fun i ->
      let k = Random.State.int rng modules in
      let file = Printf.sprintf "m%d.c" k and m = Printf.sprintf "m%d" k in
      let interface = (i + 1) mod interface_every = 0 in
      let table = if interface then sig_on else body_on in
      let on = Hashtbl.mem table k in
      let plain, edited =
        if interface then
          ( Printf.sprintf "int %s_weight(%s_rec *r)" m m,
            Printf.sprintf "int %s_weight(/*@notnull@*/ %s_rec *r)" m m )
        else
          ( "  r->weight = r->weight + by;\n",
            "  r->weight = r->weight + by + 1;\n" )
      in
      let what, with_ = if on then (edited, plain) else (plain, edited) in
      if on then Hashtbl.remove table k else Hashtbl.replace table k ();
      Hashtbl.replace texts file
        (replace_once ~what ~with_ (Hashtbl.find texts file));
      J.Obj
        [
          ("file", J.String file);
          ("old", J.String what);
          ("new", J.String with_);
        ])

let seeded_json ~flags (sb : Progen.seeded) =
  J.Obj
    [
      ("kind", J.String (Progen.bug_kind_string sb.Progen.sb_kind));
      ("class", J.String (class_of_bug sb.Progen.sb_kind));
      ("file", J.String (Progen.sb_file sb));
      ("fn", J.String sb.Progen.sb_fn);
      ("static", J.Bool (Progen.expected_static ~flags sb.Progen.sb_kind));
    ]

let triple_json (f, s, w) = J.List [ J.String f; J.String s; J.String w ]

(* Generate a workload's files (name, text) and answer fields. *)
let generate w ~seed ~small =
  let flags = flags_of (flag_args w) in
  match w with
  | Cold_corpus | Edit_loop ->
      let modules =
        match w with
        | Edit_loop -> edit_modules
        | _ -> if small then cold_modules_small else cold_modules
      in
      let p =
        Progen.generate ~seed ~modules ~fns_per_module
          ~bugs:Progen.all_bug_kinds ()
      in
      let answers () =
        let v = Difftest.classify ~flags p in
        let unexcused =
          List.filter
            (fun (f : Difftest.finding) -> f.Difftest.f_kind <> Difftest.Blind_spot)
            v.Difftest.v_findings
        in
        [
          ("seeded", J.List (List.map (seeded_json ~flags) p.Progen.seeded));
          ( "unexcused",
            J.List
              (List.map
                 (fun f -> J.String (Fmt.str "%a" Difftest.pp_finding f))
                 unexcused) );
        ]
        @
        if w = Edit_loop then [ ("edits", J.List (edit_script ~seed p.Progen.files)) ]
        else []
      in
      (p.Progen.files, answers)
  | Long_proc ->
      let blocks = if small then long_blocks_small else long_blocks in
      let text, bugs = long_proc ~seed ~blocks in
      let answers () =
        [
          ( "blocks",
            J.List
              (List.map
                 (fun (cls, first, last) ->
                   J.Obj
                     [
                       ("class", J.String cls);
                       ("first", J.Int first);
                       ("last", J.Int last);
                     ])
                 bugs) );
        ]
      in
      ([ ("long.c", text) ], answers)
  | Annotate ->
      let p =
        Progen.generate ~seed ~modules:annotate_modules ~fns_per_module
          ~annotated:true ~rich:true ~bugs:xproc_kinds ()
      in
      let stripped =
        List.map (fun (n, t) -> (n, Infer.strip_annotations t)) p.Progen.files
      in
      let answers () =
        let prog = analyze_texts ~flags p.Progen.files in
        let declared =
          slot_words
            ~select:(fun _ -> true)
            prog (defined_names prog)
        in
        [ ("declared", J.List (List.map triple_json declared)) ]
      in
      (stripped, answers)

let gen name ~seed ~dir =
  let w = workload_of_string name in
  let files, answers = generate w ~seed ~small:false in
  let src = Filename.concat dir "src" in
  mkdir_p src;
  List.iter (fun (n, t) -> write_file (Filename.concat src n) t) files;
  let lines = List.fold_left (fun acc (_, t) -> acc + count_lines t) 0 files in
  let doc =
    J.Obj
      ([
         ("workload", J.String name);
         ("seed", J.Int seed);
         ("flags", J.List (List.map (fun s -> J.String s) (flag_args w)));
         ("files", J.List (List.map (fun (n, _) -> J.String n) files));
         ("lines", J.Int lines);
       ]
      @ answers ())
  in
  write_file (Filename.concat dir "answers.json") (J.to_string doc ^ "\n");
  Printf.printf "%s\n" (J.to_string (J.Obj [ ("lines", J.Int lines) ]))

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

let summary_line kept suppressed =
  Printf.sprintf "%d code warning%s%s\n" kept
    (if kept = 1 then "" else "s")
    (if suppressed = 0 then "" else Printf.sprintf " (%d suppressed)" suppressed)

(* olclint's plain stdout for a kept/suppressed split. *)
let render_plain kept suppressed =
  let b = Buffer.create 4096 in
  List.iter
    (fun d ->
      Buffer.add_string b (Diag.to_string d);
      Buffer.add_char b '\n')
    kept;
  Buffer.add_string b (summary_line (List.length kept) suppressed);
  Buffer.contents b

(* Score kept diagnostics against the answers; returns the list of
   disagreements (one line each). *)
let score answers ~(kept : Diag.t list) ~lib =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let file_of (d : Diag.t) = d.Diag.loc.Cfront.Loc.file in
  (match str "workload" answers |> workload_of_string with
  | Cold_corpus | Edit_loop ->
      List.iter (fun u -> err "oracle: %s" (Option.get (J.to_string_opt u)))
        (list "unexcused" answers);
      let seeded = list "seeded" answers in
      List.iter
        (fun sb ->
          let file = str "file" sb and cls = str "class" sb in
          if member_exn "static" sb = J.Bool true
             && not (Check.Errclass.witnessed ~file ~cls kept)
          then err "missed seeded %s in %s" (str "kind" sb) (str "fn" sb))
        seeded;
      (* a diagnostic belongs to a seeded bug when it sits in the
         carrier's module or names the carrier (driver.c's call of a
         carrier that returns storage) *)
      let bug_files = List.map (str "file") seeded
      and carriers = List.map (str "fn") seeded in
      let mentions text fn =
        let n = String.length fn and t = String.length text in
        let rec at i = i + n <= t && (String.sub text i n = fn || at (i + 1)) in
        at 0
      in
      List.iter
        (fun d ->
          if
            not
              (List.mem (file_of d) bug_files
              || List.exists (mentions (Diag.to_string d)) carriers)
          then err "diagnostic in a clean module: %s" (Diag.to_string d))
        kept
  | Long_proc ->
      let blocks =
        List.map
          (fun b -> (str "class" b, int "first" b, int "last" b))
          (list "blocks" answers)
      in
      let inside (_, first, last) (d : Diag.t) =
        let l = d.Diag.loc.Cfront.Loc.line in
        first <= l && l <= last
      in
      List.iter
        (fun ((cls, first, _) as blk) ->
          if
            not
              (List.exists
                 (fun d ->
                   inside blk d
                   && List.mem cls (Check.Errclass.of_code d.Diag.code))
                 kept)
          then err "missed %s in the block at line %d" cls first)
        blocks;
      List.iter
        (fun d ->
          if not (List.exists (fun blk -> inside blk d) blocks) then
            err "diagnostic outside every buggy block: %s" (Diag.to_string d))
        kept
  | Annotate -> (
      match lib with
      | None -> ()
      | Some inferred ->
          let declared =
            List.map
              (function
                | J.List [ f; s; w ] ->
                    ( Option.get (J.to_string_opt f),
                      Option.get (J.to_string_opt s),
                      Option.get (J.to_string_opt w) )
                | _ -> failwith "bad declared triple")
              (list "declared" answers)
          in
          List.iter
            (fun (f, s, w) ->
              if not (List.mem (f, s, w) inferred) then
                err "annotation missed: %s %s %s" f s w)
            declared;
          List.iter
            (fun (f, s, w) ->
              if not (List.mem (f, s, w) declared) then
                err "annotation wrong: %s %s %s" f s w)
            inferred));
  List.rev !errs

(* The inferred annotation triples of an olclint -dump-lib library. *)
let lib_triples ~flags ~names path =
  let prog =
    Check.Libspec.load ~flags
      ~into:(Stdspec.environment ~flags ())
      ~file:path (read_file path)
  in
  slot_words
    ~select:(fun e -> Annot.is_inferred e.Sema.an)
    prog names

let diags_of_ndjson text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match J.of_string l with
         | Error msg -> failwith ("bad diagnostic record: " ^ msg)
         | Ok j -> (
             match Diag.of_json j with
             | Error msg -> failwith msg
             | Ok d -> (d, J.member "suppressed" j = Some (J.Bool true))))

let verify ~dir ~json ~text ~lib =
  let answers = json_of_file (Filename.concat dir "answers.json") in
  let records = diags_of_ndjson (read_file json) in
  let kept = List.filter_map (fun (d, s) -> if s then None else Some d) records in
  let nsupp = List.length (List.filter snd records) in
  let mismatches =
    match text with
    | Some t when read_file t <> render_plain kept nsupp ->
        [ "plain output differs from the -json records of the same input" ]
    | _ -> []
  in
  let lib =
    Option.map
      (fun path ->
        let flags = flags_of (strings "flags" answers) in
        let prog =
          analyze_texts ~flags
            (List.map
               (fun n -> (n, read_file (Filename.concat (Filename.concat dir "src") n)))
               (strings "files" answers))
        in
        lib_triples ~flags ~names:(defined_names prog) path)
      lib
  in
  let errs = score answers ~kept ~lib in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("verdict_errors", J.Int (List.length errs));
            ("kept", J.Int (List.length kept));
            ("mismatches", J.List (List.map (fun s -> J.String s) mismatches));
            ( "details",
              J.List
                (List.filteri (fun i _ -> i < 20) errs
                |> List.map (fun s -> J.String s)) );
          ]))

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

(* In-memory spans: name, start, end, parent, request id, and the
   allocated / minor / major word deltas of the interval. *)
type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;  (** -1 at the root *)
  sp_req : int;  (** edit-loop request id, -1 elsewhere *)
  sp_start : float;
  sp_stop : float;
  sp_alloc : float;
  sp_minor : float;
  sp_major : float;
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let request = ref (-1)

let alloc_words () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  (minor, major, minor +. major -. promoted)

let now = Unix.gettimeofday

(* [span name f] runs [f]; while tracing, records its span and returns
   it alongside the result. *)
let span name f =
  if not !tracing then (f (), None)
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let mi0, ma0, al0 = alloc_words () in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    let mi1, ma1, al1 = alloc_words () in
    open_spans := List.tl !open_spans;
    let s =
      {
        sp_id = id;
        sp_name = name;
        sp_parent = parent;
        sp_req = !request;
        sp_start = t0;
        sp_stop = t1;
        sp_alloc = al1 -. al0;
        sp_minor = mi1 -. mi0;
        sp_major = ma1 -. ma0;
      }
    in
    spans := s :: !spans;
    (r, Some s)
  end

let secs s = s.sp_stop -. s.sp_start

type input = { i_name : string; i_text : unit -> string }

(* Per-layer totals of one traced pass. *)
type layer = { mutable l_s : float; mutable l_words : float }

type pass = {
  layers : (string, layer) Hashtbl.t;
  per_file : (int * float * float) list;  (** tokens, parse s, sema s *)
  output : string;
  wall : float;
  counters : (string, float) Hashtbl.t;
}

let add_layer tbl name s words =
  let l =
    match Hashtbl.find_opt tbl name with
    | Some l -> l
    | None ->
        let l = { l_s = 0.0; l_words = 0.0 } in
        Hashtbl.replace tbl name l;
        l
  in
  l.l_s <- l.l_s +. s;
  l.l_words <- l.l_words +. words

let counter c = float (Telemetry.Counter.value c)

(* olclint's batch pipeline (read -> lex -> parse -> sema ->
   infer/summary -> check -> emit), -j 1, over [inputs].  Untraced it is
   exactly the binary's call sequence.  Traced, each layer's public call
   is wrapped in a span; where one layer calls another, the inner call
   is also made separately on the same input: lexing (parse_string
   lexes first; the program's own lex/parse phase spans split its time,
   the separate call's allocation is subtracted from parse's) and the
   +xproc summary table (check_program derives it; check's self time
   and allocation subtract the separate call's). *)
let run_pass ~traced ~flags inputs =
  tracing := traced;
  Telemetry.set_enabled traced;
  let layers = Hashtbl.create 16 and counters = Hashtbl.create 16 in
  let record name = function
    | Some s -> add_layer layers name (secs s) s.sp_alloc
    | None -> ()
  in
  let sub name (a : span option) (b : span option) =
    match (a, b) with
    | Some a, Some b ->
        add_layer layers name (secs a -. secs b) (a.sp_alloc -. b.sp_alloc)
    | _ -> ()
  in
  let t0 = now () in
  let prog, s = span "stdspec" (fun () -> Stdspec.environment ~flags ()) in
  record "stdspec" s;
  let per_file =
    List.map
      (fun inp ->
        let file = inp.i_name in
        let text, s = span "read" inp.i_text in
        record "read" s;
        let typedefs =
          Hashtbl.fold (fun k _ acc -> k :: acc) prog.Sema.p_typedefs []
        in
        let toks, lex =
          if traced then
            span "lex" (fun () -> Array.length (Cfront.Lexer.tokenize_array ~file text))
          else (0, None)
        in
        Telemetry.reset ();
        let tu, parse =
          span "parse" (fun () -> Cfront.Parser.parse_string ~typedefs ~file text)
        in
        (* parse_string lexes, then parses; the program's own lex and
           parse phase spans split that one interval exactly, while the
           allocation split subtracts the separate lex call above *)
        let phase name =
          List.fold_left
            (fun acc (sp : Telemetry.span) ->
              if sp.Telemetry.sp_name = name then acc +. sp.Telemetry.sp_secs else acc)
            0.0 (Telemetry.spans ())
        in
        let lex_s = phase Telemetry.phase_lex and parse_s = phase Telemetry.phase_parse in
        (match (lex, parse) with
        | Some l, Some p ->
            add_layer layers "lex" lex_s l.sp_alloc;
            add_layer layers "parse" parse_s (p.sp_alloc -. l.sp_alloc)
        | _ -> ());
        let (), sema =
          span "sema" (fun () -> ignore (Sema.analyze ~flags ~into:prog tu))
        in
        record "sema" sema;
        if traced then
          Hashtbl.replace counters "parse.ast_nodes"
            (float (Cfront.Ast.size_tunit tu)
            +. Option.value ~default:0.0 (Hashtbl.find_opt counters "parse.ast_nodes"));
        match sema with
        | Some s -> (toks, parse_s, secs s)
        | None -> (toks, 0.0, 0.0))
      inputs
  in
  if flags.Annot.Flags.infer_constraints then begin
    Telemetry.reset ();
    let outcome, s = span "infer" (fun () -> Infer.run prog) in
    record "infer" s;
    let o = outcome in
    Hashtbl.replace counters "infer.candidates" (counter Telemetry.c_infer_candidates);
    Hashtbl.replace counters "infer.probes" (float o.Infer.out_probes);
    Hashtbl.replace counters "infer.skipped" (float o.Infer.out_skipped);
    Hashtbl.replace counters "infer.accepted"
      (float (List.length o.Infer.out_findings))
  end;
  let summary =
    if traced && flags.Annot.Flags.xproc then begin
      Telemetry.reset ();
      let tbl, s = span "summary" (fun () -> Summary.of_program prog) in
      record "summary" s;
      Hashtbl.replace counters "summary.funcs" (float (Hashtbl.length tbl));
      Hashtbl.replace counters "summary.rounds" (counter Telemetry.c_summary_rounds);
      Hashtbl.replace counters "summary.top" (counter Telemetry.c_summary_top);
      s
    end
    else None
  in
  Telemetry.reset ();
  let check_diags, s = span "check" (fun () -> Parcheck.check_program ~jobs:1 prog) in
  (match summary with Some _ -> sub "check" s summary | None -> record "check" s);
  if traced then begin
    List.iter
      (fun (c, name) -> Hashtbl.replace counters name (counter c))
      [
        (Telemetry.c_procedures, "check.procedures");
        (Telemetry.c_store_ops, "check.store_writes");
        (Telemetry.c_store_ops_elided, "check.store_elided");
      ];
    (* per-procedure check spans carry the procedure name as label *)
    let rec procs acc (sp : Telemetry.span) =
      let acc = if sp.Telemetry.sp_label <> None then sp.Telemetry.sp_secs :: acc else acc in
      List.fold_left procs acc sp.Telemetry.sp_children
    in
    let times = List.fold_left procs [] (Telemetry.spans ()) in
    let total = List.fold_left ( +. ) 0.0 times in
    if total > 0.0 then
      Hashtbl.replace counters "check.max_proc_share"
        (List.fold_left max 0.0 times /. total)
  end;
  let (kept, nsupp), s =
    span "emit" (fun () ->
        let table, errs = Check.Suppress.of_pragmas prog.Sema.p_pragmas in
        List.iter (Diag.Collector.emit prog.Sema.diags) errs;
        let all =
          Diag.Collector.sort_emission (Diag.Collector.all prog.Sema.diags @ check_diags)
        in
        let kept, suppressed = Check.Suppress.filter table all in
        (kept, List.length suppressed))
  in
  let output, s' = span "render" (fun () -> render_plain kept nsupp) in
  record "emit" s;
  record "emit" s';
  let wall = now () -. t0 in
  Hashtbl.replace counters "emit.diagnostics" (float (List.length kept));
  Telemetry.set_enabled false;
  Telemetry.reset ();
  tracing := false;
  { layers; per_file; output; wall; counters }

let layer_s p name =
  match Hashtbl.find_opt p.layers name with Some l -> l.l_s | None -> 0.0

let layer_mwords p name =
  match Hashtbl.find_opt p.layers name with
  | Some l -> l.l_words /. 1e6
  | None -> 0.0

let get p name = Option.value ~default:0.0 (Hashtbl.find_opt p.counters name)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* per-token time of the last tenth of files over the first tenth *)
let growth per_file pick =
  let arr = Array.of_list per_file in
  let n = Array.length arr in
  if n < 10 then 0.0
  else
    let k = n / 10 in
    let rate lo =
      let toks = ref 0 and t = ref 0.0 in
      for i = lo to lo + k - 1 do
        let tk, _, _ = arr.(i) in
        toks := !toks + tk;
        t := !t +. pick arr.(i)
      done;
      !t /. float (max 1 !toks)
    in
    let first = rate 0 in
    if first > 0.0 then rate (n - k) /. first else 0.0

(* The edit loop through the in-process service: cold check, then the
   answer file's edit script; returns per-request (tier, ms, rechecked,
   hits, misses) for the edits, and whether every edit's diagnostics
   equal the cold ones. *)
let incr_run ~flags ~dir answers =
  let src = Filename.concat dir "src" in
  let names = strings "files" answers in
  let texts = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace texts n (read_file (Filename.concat src n))) names;
  let docs () =
    List.map
      (fun n -> { Incr.Service.doc_name = n; doc_text = Hashtbl.find texts n })
      names
  in
  let svc = Incr.Service.create ~flags () in
  let check () =
    match Incr.Service.check ~jobs:1 svc (docs ()) with
    | Ok oc -> oc
    | Error d -> failwith (Diag.to_string d)
  in
  let render (oc : Incr.Service.outcome) =
    render_plain oc.Incr.Service.oc_kept (List.length oc.Incr.Service.oc_suppressed)
  in
  tracing := true;
  let cold, _ = span "incr.cold" check in
  let same = ref true in
  let results =
    List.mapi
      (fun i e ->
        let file = str "file" e in
        Hashtbl.replace texts file
          (replace_once ~what:(str "old" e) ~with_:(str "new" e)
             (Hashtbl.find texts file));
        request := i;
        let oc, s = span "incr.check" check in
        request := -1;
        if render oc <> render cold then same := false;
        ( Incr.Service.tier_name oc.Incr.Service.oc_tier,
          1000.0 *. secs (Option.get s),
          oc.Incr.Service.oc_rechecked,
          oc.Incr.Service.oc_hits,
          oc.Incr.Service.oc_misses ))
      (list "edits" answers)
  in
  tracing := false;
  (results, !same)

let span_json s =
  J.Obj
    [
      ("id", J.Int s.sp_id);
      ("name", J.String s.sp_name);
      ("parent", J.Int s.sp_parent);
      ("request", J.Int s.sp_req);
      ("start", J.Float s.sp_start);
      ("end", J.Float s.sp_stop);
      ("alloc_words", J.Float s.sp_alloc);
      ("minor_words", J.Float s.sp_minor);
      ("major_words", J.Float s.sp_major);
    ]

let trace ~dir ~expect =
  let answers = json_of_file (Filename.concat dir "answers.json") in
  let w = workload_of_string (str "workload" answers) in
  let seed = int "seed" answers in
  let flags = flags_of (strings "flags" answers) in
  let src = Filename.concat dir "src" in
  let inputs =
    List.map
      (fun n -> { i_name = n; i_text = (fun () -> read_file (Filename.concat src n)) })
      (strings "files" answers)
  in
  let lines = float (int "lines" answers) in
  (* untraced first: its Gc deltas are the whole run's collections; a
     second untraced pass after the traced one evens out warm-up in the
     overhead ratio *)
  let q0 = Gc.quick_stat () in
  let plain = run_pass ~traced:false ~flags inputs in
  let q1 = Gc.quick_stat () in
  let traced = run_pass ~traced:true ~flags inputs in
  let plain2 = run_pass ~traced:false ~flags inputs in
  let identical =
    plain.output = traced.output && plain2.output = plain.output
    && match expect with Some t -> read_file t = plain.output | None -> true
  in
  (* growth exponent of each layer over a size step, traced only *)
  let exps =
    match w with
    | Cold_corpus | Long_proc ->
        let files, _ = generate w ~seed ~small:true in
        let small_lines =
          float (List.fold_left (fun acc (_, t) -> acc + count_lines t) 0 files)
        in
        let small =
          run_pass ~traced:true ~flags
            (List.map (fun (n, t) -> { i_name = n; i_text = (fun () -> t) }) files)
        in
        List.map
          (fun l ->
            let a = layer_s small l and b = layer_s traced l in
            ( l ^ ".growth_exp",
              if a > 0.0 && b > 0.0 then log (b /. a) /. log (lines /. small_lines)
              else 0.0 ))
          [ "lex"; "parse"; "sema"; "check"; "emit" ]
    | Annotate | Edit_loop ->
        List.map (fun l -> (l ^ ".growth_exp", 0.0)) [ "lex"; "parse"; "sema"; "check"; "emit" ]
  in
  let incr_results, incr_same =
    match w with Edit_loop -> incr_run ~flags ~dir answers | _ -> ([], true)
  in
  let tier_ms t =
    median (List.filter_map (fun (tr, ms, _, _, _) -> if tr = t then Some ms else None) incr_results)
  in
  let sumf f = List.fold_left (fun acc r -> acc +. f r) 0.0 incr_results in
  let nreq = float (max 1 (List.length incr_results)) in
  let hits = sumf (fun (_, _, _, h, _) -> float h)
  and misses = sumf (fun (_, _, _, _, m) -> float m) in
  let tokens = List.fold_left (fun acc (t, _, _) -> acc + t) 0 traced.per_file in
  let writes = get traced "check.store_writes" +. get traced "check.store_elided" in
  let check_s = layer_s traced "check" in
  let metrics =
    [
      ("stdspec.s", layer_s traced "stdspec");
      ("lex.s", layer_s traced "lex");
      ("lex.tokens", float tokens);
      ( "lex.mtokens_per_s",
        if layer_s traced "lex" > 0.0 then float tokens /. layer_s traced "lex" /. 1e6
        else 0.0 );
      ("lex.alloc_mwords", layer_mwords traced "lex");
      ("parse.s", layer_s traced "parse");
      ("parse.ast_nodes", get traced "parse.ast_nodes");
      ("parse.alloc_mwords", layer_mwords traced "parse");
      ("parse.growth", growth traced.per_file (fun (_, p, _) -> p));
      ("sema.s", layer_s traced "sema");
      ("sema.alloc_mwords", layer_mwords traced "sema");
      ("sema.growth", growth traced.per_file (fun (_, _, s) -> s));
      ("summary.s", layer_s traced "summary");
      ("summary.funcs", get traced "summary.funcs");
      ("summary.rounds", get traced "summary.rounds");
      ("summary.top", get traced "summary.top");
      ("infer.s", layer_s traced "infer");
      ("infer.candidates", get traced "infer.candidates");
      ("infer.probes", get traced "infer.probes");
      ("infer.skipped", get traced "infer.skipped");
      ( "infer.accept_ratio",
        if get traced "infer.probes" > 0.0 then
          get traced "infer.accepted" /. get traced "infer.probes"
        else 0.0 );
      ("check.self_s", check_s);
      ("check.procedures", get traced "check.procedures");
      ("check.store_ops", writes);
      ( "check.elided_ratio",
        if writes > 0.0 then get traced "check.store_elided" /. writes else 0.0 );
      ("check.ns_per_store_op", if writes > 0.0 then check_s *. 1e9 /. writes else 0.0);
      ("check.max_proc_share", get traced "check.max_proc_share");
      ("check.alloc_mwords", layer_mwords traced "check");
      ("emit.s", layer_s traced "emit");
      ("emit.diagnostics", get traced "emit.diagnostics");
      ("incr.patched_ms", tier_ms "patched");
      ("incr.rebuilt_ms", tier_ms "rebuilt");
      ("incr.rechecked", sumf (fun (_, _, r, _, _) -> float r) /. nreq);
      ("incr.hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
      ( "gc.minor_collections",
        float (q1.Gc.minor_collections - q0.Gc.minor_collections) );
      ( "gc.major_collections",
        float (q1.Gc.major_collections - q0.Gc.major_collections) );
      ("trace.overhead", 2.0 *. traced.wall /. (plain.wall +. plain2.wall));
    ]
    @ exps
  in
  let ordered = List.sort (fun a b -> compare a.sp_id b.sp_id) !spans in
  write_file (Filename.concat dir "trace.json")
    (J.to_string (J.List (List.map span_json ordered)) ^ "\n");
  print_endline
    (J.to_string
       (J.Obj
          [
            ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) metrics));
            ("identical", J.Bool identical);
            ("incr_identical", J.Bool incr_same);
            ("plain_wall_s", J.Float plain.wall);
            ( "service_ms",
              J.List (List.map (fun (_, ms, _, _, _) -> J.Float ms) incr_results) );
            ( "tiers",
              J.List (List.map (fun (t, _, _, _, _) -> J.String t) incr_results) );
          ]))

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  let usage () =
    prerr_endline "usage: olbench (gen|verify|trace) --dir D [options]";
    exit 2
  in
  match args with
  | [] -> usage ()
  | cmd :: rest -> (
      let o = opts [] rest in
      let get k = List.assoc_opt k o in
      let need k = match get k with Some v -> v | None -> usage () in
      match cmd with
      | "gen" ->
          gen (need "workload")
            ~seed:(int_of_string (need "seed"))
            ~dir:(need "dir")
      | "verify" ->
          verify ~dir:(need "dir") ~json:(need "json") ~text:(get "text")
            ~lib:(get "lib")
      | "trace" -> trace ~dir:(need "dir") ~expect:(get "expect")
      | _ -> usage ())
