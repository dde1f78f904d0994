(* Incremental checking service tests: cache validity, edit tiers,
   -j equivalence, persistence, and the NDJSON protocol layer. *)

module Service = Incr.Service
module Server = Incr.Server
module Diag = Cfront.Diag
module J = Telemetry.Json
module Flags = Annot.Flags

let flags = Flags.default

let file_a =
  "typedef struct _rec { int v; /*@null@*/ /*@only@*/ char *label; } rec;\n\
   /*@only@*/ rec *rec_create(int v)\n\
   {\n\
   rec *r = (rec *) malloc(sizeof(rec));\n\
   if (r == NULL) { exit(1); }\n\
   r->v = v;\n\
   r->label = NULL;\n\
   return r;\n\
   }\n\
   void rec_destroy(/*@only@*/ rec *r)\n\
   {\n\
   if (r->label != NULL) { free(r->label); }\n\
   free(r);\n\
   }\n\
   int rec_value(rec *r) { return r->v; }\n"

let file_b =
  "int use_ok(void)\n\
   {\n\
   rec *r = rec_create(1);\n\
   int v = rec_value(r);\n\
   rec_destroy(r);\n\
   return v;\n\
   }\n\
   void use_leak(void)\n\
   {\n\
   rec *r = rec_create(1);\n\
   rec *s = rec_create(2);\n\
   r = s;\n\
   rec_destroy(r);\n\
   }\n"

let docs files =
  List.map
    (fun (name, text) -> { Service.doc_name = name; doc_text = text })
    files

let base_files = [ ("a.c", file_a); ("b.c", file_b) ]

let replace ~what ~with_ text =
  let wl = String.length what and tl = String.length text in
  let rec find i =
    if i + wl > tl then
      Alcotest.failf "edit anchor %S not found" what
    else if String.sub text i wl = what then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub text 0 i ^ with_ ^ String.sub text (i + wl) (tl - i - wl)

let edit target what with_ files =
  List.map
    (fun (name, text) ->
      if name = target then (name, replace ~what ~with_ text)
      else (name, text))
    files

let run ?jobs ?flag_args svc files =
  match Service.check ?jobs ?flag_args svc (docs files) with
  | Ok oc -> oc
  | Error d -> Alcotest.failf "service error: %s" (Diag.to_string d)

let render (oc : Service.outcome) =
  List.map Diag.to_string oc.Service.oc_kept
  @ List.map (fun d -> "sup:" ^ Diag.to_string d) oc.Service.oc_suppressed

(* The cold in-process pipeline, for reference output. *)
let direct ?(flags = flags) files =
  let r = Check.run ~flags ~into:(Stdspec.environment ~flags ()) files in
  List.map Diag.to_string r.Check.reports
  @ List.map (fun d -> "sup:" ^ Diag.to_string d) r.Check.suppressed

let tier = Alcotest.testable (Fmt.of_to_string Service.tier_name) ( = )

(* ------------------------------------------------------------------ *)

let test_cold_matches_direct () =
  let svc = Service.create ~flags () in
  let oc = run svc base_files in
  Alcotest.check tier "cold tier" Service.Cold oc.Service.oc_tier;
  Alcotest.(check int) "all functions checked" 5 oc.Service.oc_rechecked;
  Alcotest.(check (list string))
    "diagnostics match the cold pipeline" (direct base_files) (render oc);
  Alcotest.(check bool) "the leak is reported" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.code = "mustfree")
       oc.Service.oc_kept)

let test_clean_noop () =
  let svc = Service.create ~flags () in
  let first = run svc base_files in
  let again = run svc base_files in
  Alcotest.check tier "clean tier" Service.Clean again.Service.oc_tier;
  Alcotest.(check int) "nothing re-checked" 0 again.Service.oc_rechecked;
  Alcotest.(check int) "all hits" 5 again.Service.oc_hits;
  Alcotest.(check (list string))
    "same diagnostics" (render first) (render again)

let test_body_edit_patches () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  let edited = edit "b.c" "return v;" "return v + 1;" base_files in
  let oc = run svc edited in
  Alcotest.check tier "patched tier" Service.Patched oc.Service.oc_tier;
  Alcotest.(check int) "exactly one re-check" 1 oc.Service.oc_rechecked;
  Alcotest.(check int) "four hits" 4 oc.Service.oc_hits;
  Alcotest.(check (list string))
    "matches a cold check of the edit" (direct edited) (render oc)

let test_block_scope_warm_matches_cold () =
  (* a block-scope declaration is visible only inside its procedure, so
     re-checking [use] alone after a body edit sees what a cold run
     sees *)
  let files =
    [
      ( "blk.c",
        "void h(void) { extern int q; }\nint use(void) { return q; }\n" );
    ]
  in
  let svc = Service.create ~flags () in
  ignore (run svc files);
  let edited = edit "blk.c" "return q;" "return q + 1;" files in
  let warm = run svc edited in
  Alcotest.check tier "patched tier" Service.Patched warm.Service.oc_tier;
  Alcotest.(check int) "one re-check" 1 warm.Service.oc_rechecked;
  let cold = run (Service.create ~flags ()) edited in
  Alcotest.(check (list string)) "warm = cold" (render cold) (render warm);
  Alcotest.(check (list string)) "cold = direct" (direct edited) (render cold)

let test_funsig_edit_rechecks_callers () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  (* dropping the only annotation changes rec_create's funsig: the
     function and both its callers must re-check; rec_destroy and
     rec_value must not *)
  let edited = edit "a.c" "/*@only@*/ rec *rec_create" "rec *rec_create" base_files in
  let oc = run svc edited in
  Alcotest.check tier "rebuilt tier" Service.Rebuilt oc.Service.oc_tier;
  Alcotest.(check int) "function + callers" 3 oc.Service.oc_rechecked;
  Alcotest.(check (list string))
    "matches a cold check of the edit" (direct edited) (render oc)

let xproc_flags = { Flags.default with Flags.xproc = true }

(* an unannotated helper whose release is only visible to +xproc, and a
   caller that reads the pointer afterwards *)
let xproc_files =
  [
    ("h.c", "void helper(char *r)\n{\nfree(r);\n}\n");
    ( "u.c",
      "int drive(void)\n\
       {\n\
       char *p = (char *) malloc(1);\n\
       if (p == NULL) { return 1; }\n\
       p[0] = 'x';\n\
       helper(p);\n\
       int v = p[0];\n\
       return v;\n\
       }\n" );
  ]

let test_summary_edit_rechecks_callers () =
  (* under +xproc a cached caller is keyed to its callees' summary
     hashes: editing helper's BODY (its signature is untouched) changes
     its derived effect, so drive must be re-checked even though tier
     classification sees only a body patch *)
  let svc = Service.create ~flags:xproc_flags () in
  let first = run svc xproc_files in
  Alcotest.(check bool) "the buried release is reported" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.code = "usereleased")
       first.Service.oc_kept);
  let edited = edit "h.c" "free(r);" "r[0] = 0;" xproc_files in
  let oc = run svc edited in
  Alcotest.check tier "patched tier" Service.Patched oc.Service.oc_tier;
  Alcotest.(check int) "helper AND its caller re-checked" 2
    oc.Service.oc_rechecked;
  Alcotest.(check (list string))
    "matches a cold check of the edit"
    (direct ~flags:xproc_flags edited)
    (render oc);
  Alcotest.(check bool) "the stale use-after-free is gone" true
    (not
       (List.exists
          (fun (d : Diag.t) -> d.Diag.code = "usereleased")
          oc.Service.oc_kept));
  (* control: without +xproc the same body edit re-checks only the
     edited function — summary keys stay out of non-xproc cache keys *)
  let plain = Service.create ~flags () in
  ignore (run plain xproc_files);
  let oc = run plain edited in
  Alcotest.(check int) "default flags: callee only" 1
    oc.Service.oc_rechecked

let test_type_edit_invalidates_all () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  (* a struct layout change shifts the type environment under every
     cached summary: conservative full invalidation *)
  let edited = edit "a.c" "{ int v;" "{ int v; int extra;" base_files in
  let oc = run svc edited in
  Alcotest.check tier "rebuilt tier" Service.Rebuilt oc.Service.oc_tier;
  Alcotest.(check int) "everything re-checked" 5 oc.Service.oc_rechecked;
  Alcotest.(check (list string))
    "matches a cold check of the edit" (direct edited) (render oc)

let test_flag_change_invalidates () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  (* the flag set is part of every key: a different effective flag set
     misses everywhere, and flipping back re-checks again (the cache
     holds one entry per function, keyed to the current epoch) *)
  let oc = run ~flag_args:[ "-null" ] svc base_files in
  Alcotest.check tier "rebuilt tier" Service.Rebuilt oc.Service.oc_tier;
  Alcotest.(check int) "all re-checked" 5 oc.Service.oc_rechecked;
  Alcotest.(check int) "no hits" 0 oc.Service.oc_hits;
  let back = run svc base_files in
  Alcotest.(check int) "flip back re-checks" 5 back.Service.oc_rechecked

let test_jobs_equivalence () =
  let reference = direct base_files in
  let edited = edit "b.c" "return v;" "return v + 1;" base_files in
  let reference_edited = direct edited in
  List.iter
    (fun jobs ->
      let svc = Service.create ~flags () in
      let cold = run ~jobs svc base_files in
      Alcotest.(check (list string))
        (Printf.sprintf "cold -j %d" jobs)
        reference (render cold);
      let warm = run ~jobs svc edited in
      Alcotest.(check (list string))
        (Printf.sprintf "warm -j %d" jobs)
        reference_edited (render warm))
    [ 1; 2; 4 ]

let test_persistence_roundtrip () =
  let svc = Service.create ~flags () in
  let first = run svc base_files in
  let blob = Service.save svc in
  Alcotest.(check bool) "artifact is stamped" true
    (Check.Libspec.is_stamped blob);
  let fresh = Service.create ~flags () in
  (match Service.load fresh blob with
  | Ok n -> Alcotest.(check int) "all summaries persisted" 5 n
  | Error msg -> Alcotest.failf "load: %s" msg);
  (* the restarted service adopts every result by content key: a full
     parse+sema, but zero re-checks *)
  let oc = run fresh base_files in
  Alcotest.(check int) "nothing re-checked after restart" 0
    oc.Service.oc_rechecked;
  Alcotest.(check int) "all adopted" 5 oc.Service.oc_hits;
  Alcotest.(check (list string))
    "same diagnostics after restart" (render first) (render oc)

let test_persistence_rejects_corruption () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  let blob = Service.save svc in
  let mangled = Bytes.of_string blob in
  let i = Bytes.length mangled - 2 in
  Bytes.set mangled i (if Bytes.get mangled i = '0' then '1' else '0');
  let fresh = Service.create ~flags () in
  (match Service.load fresh (Bytes.to_string mangled) with
  | Ok _ -> Alcotest.fail "corrupted cache accepted"
  | Error _ -> ());
  (match Service.load fresh "not a cache at all" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (* a rejected load leaves the service fully functional *)
  let oc = run fresh base_files in
  Alcotest.(check int) "cold after rejected load" 5 oc.Service.oc_rechecked

let test_invalidate () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  let dropped = Service.invalidate svc (Some [ "b.c" ]) in
  Alcotest.(check int) "b.c entries dropped" 2 dropped;
  let oc = run svc base_files in
  Alcotest.(check int) "only b.c re-checked" 2 oc.Service.oc_rechecked;
  let dropped_all = Service.invalidate svc None in
  Alcotest.(check int) "everything dropped" 5 dropped_all;
  let oc2 = run svc base_files in
  Alcotest.check tier "cold again" Service.Cold oc2.Service.oc_tier;
  Alcotest.(check int) "full re-check" 5 oc2.Service.oc_rechecked

let test_parse_error_keeps_state () =
  let svc = Service.create ~flags () in
  let first = run svc base_files in
  let broken = edit "b.c" "return v;" "return v" base_files in
  (match Service.check svc (docs broken) with
  | Ok _ -> Alcotest.fail "syntax error accepted"
  | Error d ->
      Alcotest.(check bool) "parse diagnostic" true
        (String.length (Diag.to_string d) > 0));
  (* the failed request must not have clobbered the cache *)
  let again = run svc base_files in
  Alcotest.check tier "still clean" Service.Clean again.Service.oc_tier;
  Alcotest.(check (list string))
    "same diagnostics" (render first) (render again)

let test_stats_shape () =
  let svc = Service.create ~flags () in
  ignore (run svc base_files);
  ignore (run svc base_files);
  let stats = Service.stats svc in
  let get k =
    match List.assoc_opt k stats with
    | Some v -> v
    | None -> Alcotest.failf "stats missing %s" k
  in
  Alcotest.(check int) "functions gauge" 5 (get "functions");
  Alcotest.(check int) "entries gauge" 5 (get "entries");
  Alcotest.(check int) "files gauge" 2 (get "files");
  Alcotest.(check int) "rechecked total" 5 (get "incr_rechecked");
  Alcotest.(check int) "hits total" 5 (get "incr_hits");
  Alcotest.(check bool) "sorted by name" true
    (let names = List.map fst stats in
     names = List.sort String.compare names)

(* ------------------------------------------------------------------ *)
(* The protocol layer                                                  *)
(* ------------------------------------------------------------------ *)

let obj_get k j =
  match J.member k j with
  | Some v -> v
  | None -> Alcotest.failf "response missing %S" k

let get_string k j =
  match J.to_string_opt (obj_get k j) with
  | Some s -> s
  | None -> Alcotest.failf "response field %S not a string" k

let get_int k j =
  match J.to_int_opt (obj_get k j) with
  | Some n -> n
  | None -> Alcotest.failf "response field %S not an int" k

let get_bool k j =
  match obj_get k j with
  | J.Bool b -> b
  | _ -> Alcotest.failf "response field %S not a bool" k

let check_request files =
  J.Obj
    [
      ("op", J.String "check");
      ( "files",
        J.List
          (List.map
             (fun (name, text) ->
               J.Obj
                 [ ("name", J.String name); ("text", J.String text) ])
             files) );
    ]

let test_protocol_check () =
  let svc = Service.create ~flags () in
  let resp, keep = Server.handle svc (check_request base_files) in
  Alcotest.(check bool) "keeps serving" true keep;
  Alcotest.(check bool) "ok" true (get_bool "ok" resp);
  Alcotest.(check string) "tier" "cold" (get_string "tier" resp);
  Alcotest.(check int) "functions" 5 (get_int "functions" resp);
  (match obj_get "diagnostics" resp with
  | J.List ds ->
      Alcotest.(check int) "diagnostics = warnings + suppressed"
        (get_int "warnings" resp + get_int "suppressed" resp)
        (List.length ds)
  | _ -> Alcotest.fail "diagnostics not a list");
  (* the same request again is served from cache *)
  let resp2, _ = Server.handle svc (check_request base_files) in
  Alcotest.(check string) "clean tier" "clean" (get_string "tier" resp2);
  Alcotest.(check int) "no rechecks" 0 (get_int "rechecked" resp2)

let test_protocol_stats_invalidate_shutdown () =
  let svc = Service.create ~flags () in
  ignore (Server.handle svc (check_request base_files));
  let stats, _ = Server.handle svc (J.Obj [ ("op", J.String "stats") ]) in
  Alcotest.(check bool) "stats ok" true (get_bool "ok" stats);
  Alcotest.(check int) "stats entries" 5 (get_int "entries" stats);
  let inv, _ =
    Server.handle svc
      (J.Obj
         [
           ("op", J.String "invalidate");
           ("files", J.List [ J.String "b.c" ]);
         ])
  in
  Alcotest.(check int) "dropped" 2 (get_int "dropped" inv);
  let bye, keep = Server.handle svc (J.Obj [ ("op", J.String "shutdown") ]) in
  Alcotest.(check bool) "shutdown ok" true (get_bool "ok" bye);
  Alcotest.(check bool) "stops serving" false keep

let test_protocol_errors () =
  let svc = Service.create ~flags () in
  let bad_op, keep =
    Server.handle svc (J.Obj [ ("op", J.String "frobnicate") ])
  in
  Alcotest.(check bool) "unknown op keeps serving" true keep;
  Alcotest.(check bool) "unknown op not ok" false (get_bool "ok" bad_op);
  let no_files, _ = Server.handle svc (J.Obj [ ("op", J.String "check") ]) in
  Alcotest.(check bool) "missing files not ok" false
    (get_bool "ok" no_files);
  let bad_entry, _ =
    Server.handle svc
      (J.Obj
         [
           ("op", J.String "check");
           ("files", J.List [ J.Obj [ ("name", J.String "x.c") ] ]);
         ])
  in
  Alcotest.(check bool) "entry without text not ok" false
    (get_bool "ok" bad_entry);
  let syntax, _ =
    Server.handle svc
      (check_request [ ("x.c", "int broken(void) { return 1") ])
  in
  Alcotest.(check bool) "syntax error not ok" false (get_bool "ok" syntax);
  Alcotest.(check bool) "error text present" true
    (String.length (get_string "error" syntax) > 0)

let () =
  Alcotest.run "incr"
    [
      ( "service",
        [
          Alcotest.test_case "cold matches direct" `Quick
            test_cold_matches_direct;
          Alcotest.test_case "clean no-op" `Quick test_clean_noop;
          Alcotest.test_case "body edit" `Quick test_body_edit_patches;
          Alcotest.test_case "block scope: warm = cold" `Quick
            test_block_scope_warm_matches_cold;
          Alcotest.test_case "funsig edit" `Quick
            test_funsig_edit_rechecks_callers;
          Alcotest.test_case "summary edit recheck" `Quick
            test_summary_edit_rechecks_callers;
          Alcotest.test_case "type edit" `Quick
            test_type_edit_invalidates_all;
          Alcotest.test_case "flag change" `Quick
            test_flag_change_invalidates;
          Alcotest.test_case "jobs equivalence" `Quick test_jobs_equivalence;
          Alcotest.test_case "invalidate" `Quick test_invalidate;
          Alcotest.test_case "parse error keeps state" `Quick
            test_parse_error_keeps_state;
          Alcotest.test_case "stats" `Quick test_stats_shape;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "roundtrip" `Quick test_persistence_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick
            test_persistence_rejects_corruption;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "check" `Quick test_protocol_check;
          Alcotest.test_case "stats/invalidate/shutdown" `Quick
            test_protocol_stats_invalidate_shutdown;
          Alcotest.test_case "errors" `Quick test_protocol_errors;
        ] );
    ]
