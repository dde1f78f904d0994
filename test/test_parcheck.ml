(* The parallel driver's determinism contract: checking the examples
   corpus with one worker and with four must produce identical JSON
   diagnostics, in the same order, byte for byte (what `olclint -j`
   promises its users). *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let examples =
  [
    "../examples/clean.c";
    "../examples/list.c";
    "../examples/list_plain.c";
    "../examples/sample.c";
  ]

(* (file, text) sources analysed in order into a fresh environment, so
   the runs share nothing *)
let analyze ?(flags = Annot.Flags.default) sources =
  let prog = Stdspec.environment ~flags () in
  List.iter
    (fun (file, text) ->
      ignore (Sema.analyze_string ~flags ~into:prog ~file text))
    sources;
  prog

let analyze_examples ?flags () =
  analyze ?flags (List.map (fun f -> (f, read_file f)) examples)

(* a (kept, suppressed) split as [olclint -json] prints it *)
let render_split (kept, suppressed) =
  let json suppressed d =
    Telemetry.Json.to_string (Cfront.Diag.to_json ~suppressed d)
  in
  String.concat "\n"
    (List.map (json false) kept @ List.map (json true) suppressed)

(* the CLI's output step over [Parcheck.check_program]'s diagnostics *)
let render prog check_diags = render_split (Check.report prog check_diags)

let test_seq_vs_parallel () =
  let p1 = analyze_examples () in
  let seq = render p1 (Parcheck.check_program ~jobs:1 p1) in
  let p4 = analyze_examples () in
  let par = render p4 (Parcheck.check_program ~jobs:4 p4) in
  Alcotest.(check bool) "some diagnostics produced" true
    (String.length seq > 0);
  Alcotest.(check string) "sequential vs -j 4 JSON" seq par

let test_more_jobs_than_tasks () =
  let p1 = analyze_examples () in
  let want = render p1 (Parcheck.check_program ~jobs:1 p1) in
  let p64 = analyze_examples () in
  let got = render p64 (Parcheck.check_program ~jobs:64 p64) in
  Alcotest.(check string) "jobs > tasks is clamped and identical" want got

let test_default_jobs () =
  Alcotest.(check bool) "default_jobs is positive" true
    (Parcheck.default_jobs () >= 1)

let test_loopexec_seq_vs_parallel () =
  (* the +loopexec fixpoint must stay deterministic under the parallel
     driver: worker partitioning cannot change convergence, widening, or
     bailout decisions *)
  let flags = { Annot.Flags.default with Annot.Flags.loop_exec = true } in
  let p1 = analyze_examples ~flags () in
  let seq = render p1 (Parcheck.check_program ~jobs:1 p1) in
  let p4 = analyze_examples ~flags () in
  let par = render p4 (Parcheck.check_program ~jobs:4 p4) in
  Alcotest.(check string) "+loopexec sequential vs -j 4 JSON" seq par

let test_xproc_seq_vs_parallel () =
  (* +xproc's summary table is computed once, sequentially, before the
     fan-out; every worker must consult the identical finished table, so
     output stays byte-identical at every -j on a corpus whose bugs only
     +xproc can see *)
  let flags = { Annot.Flags.default with Annot.Flags.xproc = true } in
  let gen () =
    Progen.analyse ~flags
      (Progen.generate ~seed:31 ~modules:4 ~fns_per_module:6
         ~bugs:
           [
             Progen.Bxproc_callee_free; Progen.Bxproc_callee_free_df;
             Progen.Bxproc_cond_release; Progen.Bxproc_escape_store;
           ]
         ())
  in
  let run jobs =
    let p = gen () in
    render p (Parcheck.check_program ~jobs p)
  in
  let seq = run 1 in
  Alcotest.(check bool) "some diagnostics produced" true
    (String.length seq > 0);
  Alcotest.(check string) "+xproc -j 1 vs -j 4" seq (run 4)

let test_xproc_annotated_identity () =
  (* the override contract: on a fully annotated corpus the summaries
     have nothing to add — every call-site slot is covered by an
     explicit annotation, which always wins — so +xproc output is
     byte-identical to plain annotation-driven checking *)
  let gen flags =
    Progen.analyse ~flags
      (Progen.generate ~seed:47 ~modules:5 ~fns_per_module:7 ~annotated:true
         ())
  in
  let run flags =
    let p = gen flags in
    render p (Parcheck.check_program ~jobs:2 p)
  in
  let plain = run Annot.Flags.default in
  let xproc =
    run { Annot.Flags.default with Annot.Flags.xproc = true }
  in
  Alcotest.(check string) "annotated corpus: +xproc adds nothing" plain xproc

let test_progen_corpus_jobs () =
  (* a generated multi-module corpus with seeded bugs: the per-procedure
     work-stealing scheduler must stay byte-identical across -j 1/4/64 *)
  let gen () =
    Progen.analyse
      (Progen.generate ~seed:23 ~modules:6 ~fns_per_module:8
         ~bugs:Progen.all_bug_kinds ())
  in
  let run jobs =
    let p = gen () in
    render p (Parcheck.check_program ~jobs p)
  in
  let seq = run 1 in
  Alcotest.(check bool) "some diagnostics produced" true
    (String.length seq > 0);
  Alcotest.(check string) "-j 1 vs -j 4" seq (run 4);
  Alcotest.(check string) "-j 1 vs -j 64" seq (run 64)

let test_pool_and_counters () =
  (* warm-pool reuse is observable, and parallel telemetry stays exact:
     every worker's ticks are merged back, none lost, none doubled.
     [oversubscribe] forces real helper domains even on a single-core
     host, where the production driver would clamp to the core count *)
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ())
    (fun () ->
      let run () =
        Telemetry.reset ();
        let r =
          Parcheck.map_tasks ~oversubscribe:true ~jobs:4 64 (fun i ->
              Telemetry.Counter.tick Telemetry.c_procedures;
              i * i)
        in
        Alcotest.(check int) "results positional" (63 * 63) r.(63);
        Telemetry.Counter.value Telemetry.c_procedures
      in
      Alcotest.(check int) "exact ticks, cold pool" 64 (run ());
      Alcotest.(check int) "exact ticks, warm pool" 64 (run ());
      (* the second run just reclaimed the three helper domains the
         first one parked *)
      Alcotest.(check bool) "pool reused" true
        (Telemetry.Counter.value Telemetry.c_pool_reuses >= 3))

let test_check_program_counters () =
  (* through the full driver: the same number of procedures is counted
     at every -j (exactness end to end) *)
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ())
    (fun () ->
      let procs jobs =
        let p = analyze_examples () in
        Telemetry.reset ();
        ignore (Parcheck.check_program ~jobs p);
        Telemetry.Counter.value Telemetry.c_procedures
      in
      let seq = procs 1 in
      let par = procs 4 in
      Alcotest.(check bool) "procedures counted" true (seq > 0);
      Alcotest.(check int) "exact at -j 4" seq par)

(* ---- the seed-42 progen corpora: -j identity and store traffic ---- *)

(* analysed once each and shared by every run: checking only reads the
   program *)
let seed42_corpus (modules, fns_per_module) =
  Progen.analyse (Progen.generate ~seed:42 ~modules ~fns_per_module ())

let largest = lazy (seed42_corpus (150, 62))

let test_seed42_jobs () =
  List.iter
    (fun ((modules, fns) as size) ->
      let p =
        if size = (150, 62) then Lazy.force largest else seed42_corpus size
      in
      let want = render p (Parcheck.check_program ~jobs:1 p) in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%dx%d corpus: -j 1 vs -j %d" modules fns jobs)
            want
            (render p (Parcheck.check_program ~jobs p)))
        [ 2; 4; 8 ])
    [ (2, 5); (10, 5); (20, 10); (150, 62) ]

(* Sequential store operations on the 150x62 corpus (~137k lines, 9,300
   procedures) as recorded with write elision in place.  A count, so the
   gate is deterministic: more than 10% over it means the checker writes
   more per statement than it did (dropping write elision adds ~17%). *)
let recorded_store_ops = 163_532

let test_seed42_store_ops () =
  let p = Lazy.force largest in
  Telemetry.set_enabled true;
  let ops =
    Fun.protect
      ~finally:(fun () ->
        Telemetry.set_enabled false;
        Telemetry.reset ())
      (fun () ->
        Telemetry.reset ();
        ignore (Parcheck.check_program ~jobs:1 p);
        Telemetry.Counter.value Telemetry.c_store_ops)
  in
  if ops * 10 > recorded_store_ops * 11 then
    Alcotest.failf "sequential store_ops %d is over 1.1x the baseline %d" ops
      recorded_store_ops

(* ---- block scope: checking is a function of (program, procedure) ---- *)

let analyze_src ?flags src = analyze ?flags [ ("block.c", src) ]

(* the rendered diagnostics of every checking path over one source:
   the sequential [Check.run], then [Parcheck] at -j 1 and -j 4 *)
let all_paths ?(flags = Annot.Flags.default) src =
  let run = Stdspec.check ~flags ~file:"block.c" src in
  let parallel jobs =
    let p = analyze_src ~flags src in
    List.map Cfront.Diag.to_string
      (fst (Check.report p (Parcheck.check_program ~jobs p)))
  in
  [
    ("Check.run", List.map Cfront.Diag.to_string run.Check.reports);
    ("-j 1", parallel 1);
    ("-j 4", parallel 4);
  ]

let occurrences needle lines =
  List.length
    (List.filter
       (fun l ->
         let n = String.length needle and m = String.length l in
         let rec at i =
           i + n <= m && (String.sub l i n = needle || at (i + 1))
         in
         at 0)
       lines)

let check_once ?flags src =
  List.iter
    (fun (path, lines) ->
      List.iter
        (fun needle ->
          Alcotest.(check int) (path ^ ": " ^ needle) 1
            (occurrences needle lines))
        [ "bogusextern"; "bogusfield" ])
    (all_paths ?flags src)

let test_block_annot_once () =
  check_once
    "void f(void)\n\
     {\n\
    \  extern /*@bogusextern@*/ int g;\n\
     }\n\
     void k(void)\n\
     {\n\
    \  struct s { /*@bogusfield@*/ int a; } v;\n\
    \  v.a = 0;\n\
     }\n"

let test_block_annot_loopexec () =
  let src =
    "void w(int n)\n\
     {\n\
    \  while (n > 0) {\n\
    \    extern /*@bogusextern@*/ int g;\n\
    \    struct s { /*@bogusfield@*/ int a; } v;\n\
    \    v.a = n;\n\
    \    n--;\n\
    \  }\n\
     }\n"
  in
  check_once src;
  check_once
    ~flags:{ Annot.Flags.default with Annot.Flags.loop_exec = true }
    src

let test_block_decls_local () =
  (* a block-scope declaration in [h] is invisible to [use] *)
  List.iter
    (fun decl ->
      let src =
        Printf.sprintf
          "void h(void) { %s }\nint use(void) { return q; }\n" decl
      in
      List.iter
        (fun (path, lines) ->
          Alcotest.(check int)
            (Printf.sprintf "%s, %s" decl path)
            1
            (occurrences "unrecognized identifier 'q'" lines))
        (all_paths src))
    [ "extern int q;"; "enum { q = 3 } c; c = q;" ]

(* everything checking could have written into the program *)
let fingerprint (p : Sema.program) =
  String.concat " | "
    [
      String.concat ","
        (List.map string_of_int
           [
             Hashtbl.length p.Sema.p_structs;
             Hashtbl.length p.Sema.p_typedefs;
             Hashtbl.length p.Sema.p_enum_consts;
             Hashtbl.length p.Sema.p_funcs;
             Hashtbl.length p.Sema.p_globals;
           ]);
      String.concat "," (Sema.typedef_order p);
      String.concat "," (Sema.struct_order p);
      String.concat "," (Sema.global_order p);
      string_of_int p.Sema.anon_counter;
    ]

let test_program_unchanged () =
  let src =
    "int shared;\n\
     void f(int n)\n\
     {\n\
    \  typedef struct { int a; } local_t;\n\
    \  extern /*@bogusextern@*/ int g;\n\
    \  extern int shared;\n\
    \  extern void helper(int x);\n\
    \  struct s { /*@bogusfield@*/ int a; } v;\n\
    \  enum { RED = 3, GREEN } c;\n\
    \  local_t t;\n\
    \  while (n > 0) { typedef int inner_t; inner_t i; i = n; n = n - i; }\n\
    \  t.a = (int) sizeof(struct { int b; });\n\
    \  c = RED;\n\
    \  v.a = t.a + g + shared;\n\
     }\n"
  in
  let flags = { Annot.Flags.default with Annot.Flags.loop_exec = true } in
  let sema_only = analyze_src ~flags src in
  let want = fingerprint sema_only in
  let run = Stdspec.check ~flags ~file:"block.c" src in
  Alcotest.(check string) "Check.run" want (fingerprint run.Check.program);
  Alcotest.(check int) "Check.run: no new program diagnostics"
    (Cfront.Diag.Collector.count sema_only.Sema.diags)
    (Cfront.Diag.Collector.count run.Check.program.Sema.diags);
  let unchanged what (check : Sema.program -> unit) =
    let p = analyze_src ~flags src in
    let diags = Cfront.Diag.Collector.count p.Sema.diags in
    check p;
    Alcotest.(check string) what want (fingerprint p);
    Alcotest.(check int) (what ^ ": no new program diagnostics") diags
      (Cfront.Diag.Collector.count p.Sema.diags)
  in
  unchanged "-j 1" (fun p -> ignore (Parcheck.check_program ~jobs:1 p));
  unchanged "-j 4" (fun p -> ignore (Parcheck.check_program ~jobs:4 p));
  unchanged "Infer.run" (fun p -> ignore (Infer.run p))

(* ---- one output: every entry point prints what olclint prints ---- *)

let flag_sets =
  [
    ("default", Annot.Flags.default);
    ("+loopexec", { Annot.Flags.default with Annot.Flags.loop_exec = true });
    ( "+xproc +allocmodel",
      {
        Annot.Flags.default with
        Annot.Flags.xproc = true;
        Annot.Flags.alloc_model = true;
      } );
  ]

(* every single-file input: the fleet example is one three-file program *)
let single_file_inputs =
  List.concat_map
    (fun dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             Filename.check_suffix f ".c"
             && not (String.starts_with ~prefix:"fleet_" f))
      |> List.sort compare
      |> List.map (Filename.concat dir))
    [ "../examples"; "regressions"; "../bench/svcomp" ]

(* [entry]'s report against [Parcheck] at -j 1 and -j 4 and a cold
   incremental-service check of the same sources *)
let one_output ~flags ~what ~(entry : unit -> Check.result) sources =
  let r = entry () in
  let want = render_split (r.Check.reports, r.Check.suppressed) in
  let parallel jobs =
    let p = analyze ~flags sources in
    render p (Parcheck.check_program ~jobs p)
  in
  let served =
    match
      Incr.Service.check
        (Incr.Service.create ~flags ())
        (List.map
           (fun (doc_name, doc_text) -> { Incr.Service.doc_name; doc_text })
           sources)
    with
    | Ok oc ->
        render_split (oc.Incr.Service.oc_kept, oc.Incr.Service.oc_suppressed)
    | Error d -> Alcotest.failf "%s: %s" what (Cfront.Diag.to_string d)
  in
  Alcotest.(check string) (what ^ ": -j 1") want (parallel 1);
  Alcotest.(check string) (what ^ ": -j 4") want (parallel 4);
  Alcotest.(check string) (what ^ ": service") want served

let test_one_output_files (fname, flags) () =
  Alcotest.(check bool) "inputs found" true
    (List.length single_file_inputs > 20);
  List.iter
    (fun file ->
      let src = read_file file in
      one_output ~flags
        ~what:(fname ^ " " ^ file)
        ~entry:(fun () -> Stdspec.check ~flags ~file src)
        [ (file, src) ])
    single_file_inputs

let test_one_output_progen () =
  let p =
    Progen.generate ~seed:23 ~modules:6 ~fns_per_module:8
      ~bugs:Progen.all_bug_kinds ()
  in
  List.iter
    (fun (fname, flags) ->
      one_output ~flags ~what:fname
        ~entry:(fun () -> Progen.static_check ~flags p)
        p.Progen.files)
    flag_sets

let () =
  Alcotest.run "parcheck"
    [
      ( "determinism",
        [
          Alcotest.test_case "sequential vs -j 4" `Quick test_seq_vs_parallel;
          Alcotest.test_case "jobs > tasks" `Quick test_more_jobs_than_tasks;
          Alcotest.test_case "default jobs" `Quick test_default_jobs;
          Alcotest.test_case "+loopexec sequential vs -j 4" `Quick
            test_loopexec_seq_vs_parallel;
          Alcotest.test_case "progen corpus -j 1/4/64" `Quick
            test_progen_corpus_jobs;
          Alcotest.test_case "+xproc sequential vs -j 4" `Quick
            test_xproc_seq_vs_parallel;
          Alcotest.test_case "+xproc annotated identity" `Quick
            test_xproc_annotated_identity;
        ] );
      ( "seed-42",
        [
          Alcotest.test_case "-j 1/2/4/8 identity" `Quick test_seed42_jobs;
          Alcotest.test_case "store_ops gate" `Quick
            test_seed42_store_ops;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "warm pool and exact counters" `Quick
            test_pool_and_counters;
          Alcotest.test_case "exact counters end to end" `Quick
            test_check_program_counters;
        ] );
      ( "block scope",
        [
          Alcotest.test_case "annotation reported once" `Quick
            test_block_annot_once;
          Alcotest.test_case "+loopexec: reported once" `Quick
            test_block_annot_loopexec;
          Alcotest.test_case "declarations stay in their procedure" `Quick
            test_block_decls_local;
          Alcotest.test_case "program left unchanged" `Quick
            test_program_unchanged;
        ] );
      ( "one output",
        List.map
          (fun ((fname, _) as fs) ->
            Alcotest.test_case ("single files, " ^ fname) `Quick
              (test_one_output_files fs))
          flag_sets
        @ [
            Alcotest.test_case "progen corpus, all flag sets" `Quick
              test_one_output_progen;
          ] );
    ]
