(** oldiff — the differential fuzzing front end: generate seeded
    programs, run the static checker against the run-time baseline, and
    report every divergence the oracle cannot excuse as a declared
    blind spot.

    {v
    oldiff -seed 42 -runs 100            # fixed-seed sweep
    oldiff -j 4 -runs 200                # trials on a domain pool
    oldiff -timeout-steps 50000 ...      # interpreter step budget
    oldiff -reduce DIR ...               # shrink + write reproducers
    oldiff -oom -runs 20 ...             # OOM fault-injection sweep
    v}

    Exit status: 0 when every divergence is a declared blind spot, 1
    when a soundness gap / precision regression / harness bug
    survives, 124 on command-line errors (the cmdliner convention). *)

open Cmdliner

let run seed runs timeout_steps jobs reduce_dir verbose oom flag_args =
  let flags =
    match Annot.Flags.(apply_all default) flag_args with
    | Ok f -> f
    | Error e ->
        Printf.eprintf "oldiff: %s\n"
          (Annot.Flags.error_message ~help:"docs/diagnostics.md" e);
        exit 2
  in
  let jobs = if jobs <= 0 then Parcheck.default_jobs () else jobs in
  let trials =
    List.init runs (fun i ->
        { (Difftest.trial_of_seed (seed + i)) with
          Difftest.t_max_steps = timeout_steps })
  in
  if oom then begin
    (* fault-injection mode: classify every trial once per heap
       allocation request with that request forced to fail *)
    let results =
      List.map (fun t -> (t, Difftest.run_trial_oom ~flags t)) trials
    in
    let sites = ref 0 and blind = ref 0 in
    List.iter
      (fun ((t : Difftest.trial), runs) ->
        List.iter
          (fun (site, (v : Difftest.verdict)) ->
            if site > 0 then incr sites;
            List.iter
              (fun (f : Difftest.finding) ->
                if f.Difftest.f_kind = Difftest.Blind_spot then incr blind;
                if verbose || f.Difftest.f_kind <> Difftest.Blind_spot then
                  Format.printf "seed %d oom %d  %a@." t.Difftest.t_seed
                    site Difftest.pp_finding f)
              v.Difftest.v_findings)
          runs)
      results;
    let gaps =
      List.concat_map (fun (_, runs) -> Difftest.oom_gaps runs) results
    in
    Format.printf
      "%d trial%s, %d injected allocation failure%s: %d blind-spot \
       divergence%s excused, %d finding%s kept@."
      runs
      (if runs = 1 then "" else "s")
      !sites
      (if !sites = 1 then "" else "s")
      !blind
      (if !blind = 1 then "" else "s")
      (List.length gaps)
      (if List.length gaps = 1 then "" else "s");
    if gaps = [] then 0 else 1
  end
  else begin
  let outs = Difftest.sweep ~jobs ~flags trials in
  let report (o : Difftest.outcome) =
    List.iter
      (fun (f : Difftest.finding) ->
        if verbose || f.Difftest.f_kind <> Difftest.Blind_spot then
          Format.printf "seed %d  %a@." o.Difftest.o_trial.Difftest.t_seed
            Difftest.pp_finding f)
      o.Difftest.o_verdict.Difftest.v_findings
  in
  List.iter report outs;
  (match reduce_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (fun (o : Difftest.outcome) ->
          let t = o.Difftest.o_trial in
          List.iter
            (fun (key : Difftest.finding) ->
              let p =
                Progen.generate ~seed:t.Difftest.t_seed
                  ~modules:t.Difftest.t_modules ~fns_per_module:t.Difftest.t_fns
                  ~bugs:t.Difftest.t_bugs ~coverage:t.Difftest.t_coverage ()
              in
              let reduced =
                Difftest.reduce ~flags ~max_steps:t.Difftest.t_max_steps ~key p
              in
              let name =
                Printf.sprintf "seed%d_%s_%s" t.Difftest.t_seed
                  (Difftest.kind_string key.Difftest.f_kind)
                  key.Difftest.f_class
              in
              Difftest.write_regression ~dir ~name ~trial:t key reduced;
              Format.printf "reduced seed %d %s: %d -> %d lines (%s/%s.c)@."
                t.Difftest.t_seed key.Difftest.f_class p.Progen.loc
                reduced.Progen.loc dir name)
            o.Difftest.o_verdict.Difftest.v_findings)
        outs);
  let gaps = Difftest.gaps outs in
  let blind =
    List.fold_left
      (fun acc (o : Difftest.outcome) ->
        acc
        + List.length
            (List.filter
               (fun (f : Difftest.finding) ->
                 f.Difftest.f_kind = Difftest.Blind_spot)
               o.Difftest.o_verdict.Difftest.v_findings))
      0 outs
  in
  Format.printf "%d trial%s (-j %d): %d blind-spot divergence%s excused, \
                 %d finding%s kept@."
    runs
    (if runs = 1 then "" else "s")
    jobs blind
    (if blind = 1 then "" else "s")
    (List.length gaps)
    (if List.length gaps = 1 then "" else "s");
  if gaps = [] then 0 else 1
  end

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N" ~doc:"First fuzz seed (trials use seed..seed+runs-1).")

let runs_arg =
  Arg.(
    value & opt int 50
    & info [ "runs" ] ~docv:"N" ~doc:"Number of differential trials.")

let timeout_steps_arg =
  Arg.(
    value & opt int 200_000
    & info [ "timeout-steps" ] ~docv:"N"
        ~doc:"Interpreter step budget per trial (looping programs abort \
              cleanly past it).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains for the sweep (0 = all cores).")

let reduce_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "reduce" ] ~docv:"DIR"
        ~doc:"Delta-debug every divergence and write minimized \
              reproducers (.c + .json triage records) into $(docv).")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose" ] ~doc:"Also print excused blind-spot divergences.")

let oom_arg =
  Arg.(
    value & flag
    & info [ "oom" ]
        ~doc:
          "OOM fault-injection mode: re-classify each trial once per heap \
           allocation request with that request forced to fail, so the \
           error-handling paths ordinary runs never take are exercised \
           too.")

let flags_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "f"; "flag" ] ~docv:"[+-]NAME"
        ~doc:
          "Checking flag for the static side of every trial, LCLint style \
           (e.g. -f +loopexec). Recovery flags shrink the excused \
           blind-spot set accordingly.")

let cmd =
  let doc = "differential fuzzing of the static checker against the \
             run-time baseline" in
  Cmd.v
    (Cmd.info "oldiff" ~version:"1.0" ~doc)
    Term.(
      const run $ seed_arg $ runs_arg $ timeout_steps_arg $ jobs_arg
      $ reduce_arg $ verbose_arg $ oom_arg $ flags_arg)

(* accept the LCLint-style single-dash spellings too, plus bare [+name]
   checking flags and [-loopiter N] as sugar for [-f loopiter=N] *)
let argv =
  let rec rewrite = function
    | [] -> []
    | ("-f" | "--flag") :: v :: rest ->
        (* an explicit -f keeps its value verbatim (it may start with
           '+', which must not be expanded a second time) *)
        "-f" :: v :: rewrite rest
    | "-loopiter" :: n :: rest -> "-f" :: ("loopiter=" ^ n) :: rewrite rest
    | "-seed" :: rest -> "--seed" :: rewrite rest
    | "-runs" :: rest -> "--runs" :: rewrite rest
    | "-timeout-steps" :: rest -> "--timeout-steps" :: rewrite rest
    | "-jobs" :: rest -> "--jobs" :: rewrite rest
    | "-reduce" :: rest -> "--reduce" :: rewrite rest
    | "-verbose" :: rest -> "--verbose" :: rewrite rest
    | "-oom" :: rest -> "--oom" :: rewrite rest
    | a :: rest when String.length a > 1 && a.[0] = '+' ->
        "-f" :: a :: rewrite rest
    | a :: rest -> a :: rewrite rest
  in
  Array.of_list (rewrite (Array.to_list Sys.argv))

let () = exit (Cmd.eval' ~argv cmd)
