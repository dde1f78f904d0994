(** The memory checker: per-procedure abstract interpretation driven by
    interface annotations (paper, Sections 2 and 5).

    Properties reproduced from the paper: each function is checked
    independently against the annotations of what it calls; loops are
    analysed as executing zero or one times (no fixpoints); guard
    refinements track null tests (including [truenull]/[falsenull]);
    confluence points merge branch states and report irreconcilable ones;
    parameters are modelled as a local variable aliasing the externally
    visible reference ([l] vs [argl]).

    Each procedure's diagnostics are returned to the caller; most callers
    want the {!Check} facade instead. *)

(** Raw abstract state at one procedure exit, observed before the exit
    checks replace anomalous states with error markers.  Annotation
    inference abstracts these observations into per-procedure summaries. *)
type exit_info = {
  xi_loc : Cfront.Loc.t;
  xi_ret : (State.nullstate * State.allocstate) option;
      (** the returned value's states, when a pointer value is returned *)
  xi_params : (State.defstate * State.allocstate) array;
      (** externally visible view of each parameter, by index *)
}

val check_fundef :
  ?exit_obs:(exit_info -> unit) ->
  ?summaries:Summary.table ->
  Sema.program -> Sema.funsig -> Cfront.Ast.fundef -> Cfront.Diag.t list
(** Check one function definition against its interface and return its
    diagnostics in emission order.  The program is only read: messages
    go to a collector private to the call, so a procedure's output never
    lands in [prog.diags].  [exit_obs] is called at every reachable exit
    with the raw state (summary extraction); [summaries] supplies
    interprocedural effect summaries, consulted at unannotated call-site
    slots when the program's flags enable [+xproc] (pass {!summaries};
    without it [+xproc] has no effect on this procedure). *)

val summaries : Sema.program -> Summary.table option
(** The {!Summary.of_program} table when the program's flags enable
    [+xproc], else [None].  Compute it once per program, before checking
    any procedure. *)
