(** The Section 7 analogue: checking a large program, whole and modular.

    Run with: [dune exec examples/selfcheck.exe]

    The paper checks LCLint's own 100k-line source in under four minutes,
    and a representative 5000-line module in under ten seconds using
    interface libraries.  This example generates programs of increasing
    size, times whole-program checking, and then demonstrates modular
    checking: dump the interface library once, then re-check a single
    module against it. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  print_endline "whole-program checking (generated programs):";
  Printf.printf "  %10s %10s %12s\n" "lines" "time" "lines/sec";
  List.iter
    (fun (modules, fns) ->
      let p = Progen.generate ~modules ~fns_per_module:fns () in
      let r, dt = time (fun () -> Progen.static_check p) in
      assert (r.Check.reports = []);
      Printf.printf "  %10d %9.3fs %12.0f\n%!" p.Progen.loc dt
        (float_of_int p.Progen.loc /. dt))
    [ (2, 4); (8, 10); (16, 25); (32, 40); (64, 60); (128, 80) ];

  (* modular checking: check one module against the interface library of
     the rest *)
  print_endline "\nmodular checking with an interface library:";
  let p = Progen.generate ~modules:64 ~fns_per_module:60 () in
  let whole_prog, t_analyse = time (fun () -> Progen.analyse p) in
  let lib, t_dump = time (fun () -> Check.Libspec.save whole_prog) in
  Printf.printf "  interface library: %d lines (analysed in %.3fs, dumped in %.3fs)\n"
    (List.length (String.split_on_char '\n' lib))
    t_analyse t_dump;
  let one_module = List.hd p.Progen.files in
  let _, t_mod =
    time (fun () ->
        let env =
          Sema.analyze_string
            ~into:(Stdspec.base_environment ~libs:[ ("program.lh", lib) ] ())
            ~file:(fst one_module) (snd one_module)
        in
        (* re-check only the functions of this module *)
        List.iter
          (fun ((fs : Sema.funsig), def) ->
            if fs.Sema.fs_loc.Cfront.Loc.file = fst one_module then
              ignore (Check.Checker.check_fundef env fs def))
          (Sema.fundefs env))
  in
  let _, t_whole = time (fun () -> Progen.static_check p) in
  Printf.printf "  whole program (%d lines): %.3fs\n" p.Progen.loc t_whole;
  Printf.printf "  single module against the library: %.3fs (%.1fx faster)\n"
    t_mod (t_whole /. t_mod);
  print_endline
    "\n(The paper: \"By using libraries to store interface information, a\n\
     representative 5000 line module is checked in under 10 seconds.\")"
