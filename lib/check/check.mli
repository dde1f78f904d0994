(** Top-level checking API: parse (annotations included), extract
    interfaces, check every function body, apply stylized-comment
    suppression.  Diagnostics come back in emission order (file, line,
    column, code), as [olclint] prints them. *)

module State = State
module Sref = Sref
module Store = Store
module Checker = Checker
module Suppress = Suppress
module Libspec = Libspec
module Errclass = Errclass
module Flags = Annot.Flags

type result = {
  program : Sema.program;
  reports : Cfront.Diag.t list;  (** kept diagnostics, emission order *)
  suppressed : Cfront.Diag.t list;  (** silenced by stylized comments *)
}

val report_count : result -> int
val by_code : result -> string -> Cfront.Diag.t list

val report :
  Sema.program -> Cfront.Diag.t list -> Cfront.Diag.t list * Cfront.Diag.t list
(** [report program check_diags] is the output step every entry point
    shares: the program's frontend diagnostics, the suppression table's
    own errors (counted in telemetry) and [check_diags], in
    {!Cfront.Diag.Collector.sort_emission} order, split into (kept,
    suppressed).  It only reads [program]. *)

val run :
  ?flags:Flags.t -> ?into:Sema.program -> (string * string) list -> result
(** Analyse (file name, text) sources in order into [into] (or a fresh
    program), check every procedure and {!report}.  [into] pre-loads the
    standard library and interface libraries (see {!Libspec}) for
    modular checking.  The result's [program] holds the frontend's
    diagnostics only. *)

val render_reports : result -> string
(** LCLint-style rendering of the kept diagnostics. *)

val summaries : result -> string list
(** One primary line per message. *)

val codes : result -> string list
(** The diagnostic codes, in report order. *)
