(** Parallel checking driver: run the per-procedure checker over a
    program on a pool of OCaml 5 domains ([olclint -j N]).

    Work is partitioned per {e procedure}: every task checks against
    the one post-sema program, shared read-only across domains
    (block-scope declarations resolve into a procedure-private
    {!Sema.enter_scope}).  Tasks are scheduled by work-stealing
    (per-task atomic claim flags over contiguous per-worker ranges) on
    a process-wide pool of warm worker domains that is reused across
    runs; each worker records telemetry locally and the recordings are
    merged back ({!Telemetry.absorb}) before returning.

    {b Determinism guarantee.}  The returned diagnostics — contents and
    order — are identical for every [jobs] value: the task list depends
    only on the input program, each task's result depends only on that
    program and its procedure, and results are concatenated in task
    order regardless of which domain ran what.  [jobs = 1] runs the
    same per-task code on the calling domain without spawning
    anything. *)

val default_jobs : unit -> int
(** {!Domain.recommended_domain_count} — what [-j 0] resolves to. *)

val map_tasks :
  ?oversubscribe:bool -> jobs:int -> int -> (int -> 'a) -> 'a array
(** [map_tasks ~jobs n f] evaluates [f i] for [i = 0..n-1] on at most
    [jobs] concurrent domains (the calling domain counts as one and
    works too) and returns the results positionally, so the output never
    depends on domain scheduling.  [jobs] is an upper bound twice over:
    it is clamped to the task count and to the machine's core count
    ({!Domain.recommended_domain_count}) — extra domains beyond the
    cores buy no parallelism and tax every minor collection, and the
    positional results make the worker count unobservable in the
    output.  [oversubscribe] (default [false]) lifts the core-count
    clamp for tests that must exercise the pool machinery on any host.
    Helper domains come from the warm pool when available
    ([pool_reuses] telemetry) and are parked again afterwards; tasks
    left unclaimed in one worker's range are stolen by idle workers
    ([tasks_stolen]).  Worker telemetry recordings are merged into the
    caller before returning.  Reused by the differential-testing harness
    and the incremental server. *)

val check_program : ?jobs:int -> Sema.program -> Cfront.Diag.t list
(** Check every procedure of the program with at most [jobs] (default 1)
    concurrent domains and return the checker's diagnostics in
    deterministic order: by definition order ({!Sema.fundefs}), then
    by emission order within the procedure.  Frontend/sema diagnostics
    stay in [prog.diags]; {!Check.report} joins the two into the final
    sorted, suppressed output. *)
