(** Top-level checking API.

    [run sources] performs the whole pipeline the paper describes: parse
    (annotations included), extract interfaces, check every function body
    against the interface annotations, then apply stylized-comment
    suppression ({!report}, the step [olclint] shares).  Diagnostics come
    back in emission order: file, line, column, code. *)

module State = State
module Sref = Sref
module Store = Store
module Checker = Checker
module Suppress = Suppress
module Libspec = Libspec
module Errclass = Errclass

open Cfront
module Flags = Annot.Flags

type result = {
  program : Sema.program;
  reports : Diag.t list;  (** kept diagnostics, in emission order *)
  suppressed : Diag.t list;  (** diagnostics silenced by stylized comments *)
}

let report_count r = List.length r.reports
let by_code r code = List.filter (fun (d : Diag.t) -> d.Diag.code = code) r.reports

(** Order, count and split a checked program's output: the frontend's
    diagnostics, the suppression table's own errors and [check_diags],
    sorted by {!Diag.Collector.sort_emission} and partitioned into
    (kept, suppressed).  Reads [program] only, so a long-lived
    environment can be reported on repeatedly. *)
let report (program : Sema.program) (check_diags : Diag.t list) :
    Diag.t list * Diag.t list =
  let table, errs = Suppress.of_pragmas program.Sema.p_pragmas in
  (* counted like every emitted diagnostic, though never emitted into
     the program's collector *)
  List.iter
    (fun d ->
      Telemetry.count (Telemetry.diag_counter_prefix ^ Diag.category d) 1)
    errs;
  Suppress.filter table
    (Diag.Collector.sort_emission
       (Diag.Collector.all program.Sema.diags @ errs @ check_diags))

(** Analyse [sources] (file name, text) in order into [into] (or a
    fresh program) and check every procedure.  [into] lets callers
    pre-load the standard library and interface libraries (see
    {!Libspec}) so the sources are checked modularly. *)
let run ?(flags = Flags.default) ?into (sources : (string * string) list) :
    result =
  let program =
    match into with
    | Some p -> p
    | None -> Sema.create_program ~flags ~file:"<none>" ()
  in
  List.iter
    (fun (file, text) ->
      ignore (Sema.analyze_string ~flags ~into:program ~file text))
    sources;
  let summaries = Checker.summaries program in
  let reports, suppressed =
    report program
      (List.concat_map
         (fun (fs, f) -> Checker.check_fundef ?summaries program fs f)
         (Sema.fundefs program))
  in
  { program; reports; suppressed }

(** Render diagnostics the way LCLint prints them. *)
let render_reports (r : result) : string =
  String.concat "\n" (List.map Diag.to_string r.reports)

(** One-line-per-message view (primary lines only), useful in tests. *)
let summaries (r : result) : string list =
  List.map
    (fun (d : Diag.t) -> Fmt.str "%a: %s" Loc.pp d.Diag.loc d.Diag.text)
    r.reports

let codes (r : result) : string list =
  List.map (fun (d : Diag.t) -> d.Diag.code) r.reports
