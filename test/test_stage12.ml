(* Stages 1-2 build each procedure's IR once, and do work linear in the
   program.

   Stage 1 builds every IR bottom-up against the growing return-jump-
   function table, and stage 2 keeps those IRs instead of rebuilding them.
   The first tests check that this reuse is exact: outside recursive
   cycles the kept IR yields the same forward jump functions, for all four
   kinds, as a fresh build against the completed table.  A cycle member's
   stage-1 IR can differ, and the cycle test shows a program where it
   does.  The counter tests pin the work itself: IR builds per procedure
   and whole-program walks per prepare. *)

open Ipcp_core
open Ipcp_analysis
open Ipcp_frontend
open Ipcp_suite
open Ipcp_telemetry

let check = Alcotest.check

let site_jfs_equal (xs : Jump_function.site_jf list) ys =
  List.equal
    (fun (x : Jump_function.site_jf) (y : Jump_function.site_jf) ->
      x.sf_caller = y.sf_caller && x.sf_callee = y.sf_callee
      && x.sf_site = y.sf_site
      && Array.length x.sf_formals = Array.length y.sf_formals
      && Array.for_all2 Symbolic.equal x.sf_formals y.sf_formals
      && List.equal
           (fun (k1, s1) (k2, s2) -> k1 = k2 && Symbolic.equal s1 s2)
           x.sf_globals y.sf_globals)
    xs ys

let pp_site_jfs = Fmt.(list ~sep:(any "@.") Jump_function.pp_site)

(* [p_i] calls [p_(i+1)(a)]: a straight chain. *)
let chain n =
  let b = Buffer.create (n * 48) in
  Buffer.add_string b "program chmain\n  integer k\n  k = 7\n  call p1(k)\nend\n";
  for i = 1 to n do
    Printf.bprintf b "subroutine p%d(a)\n  integer a\n" i;
    if i < n then Printf.bprintf b "  call p%d(a)\n" (i + 1);
    Printf.bprintf b "  print *, a\nend\n"
  done;
  Sema.parse_and_resolve (Buffer.contents b)

(* [p_i] calls [p_(i+1)] and [p_n] calls [p_1] while a countdown lasts:
   one recursive SCC of [n] members. *)
let ring n =
  let b = Buffer.create (n * 96) in
  Printf.bprintf b
    "program rgmain\n  integer k, m\n  k = 5\n  m = %d\n  call p1(k, m)\nend\n"
    n;
  for i = 1 to n do
    Printf.bprintf b
      "subroutine p%d(a, n)\n\
      \  integer a, n\n\
      \  if (n .gt. 0) then\n\
      \    call p%d(a, n - 1)\n\
      \  end if\n\
      \  print *, a\n\
       end\n"
      i
      (if i = n then 1 else i + 1)
  done;
  Sema.parse_and_resolve (Buffer.contents b)

let generated ~seed n =
  Workload.generate_resolved
    { Workload.default_spec with seed; num_procs = n; p_call = 0.3 }

let programs () =
  List.map
    (fun (e : Registry.entry) -> (e.name, Registry.program e))
    Registry.entries
  @ List.map
      (fun seed -> (Fmt.str "generated-%d" seed, generated ~seed 40))
      [ 1; 2; 3; 4 ]
  @ [ ("chain", chain 60); ("ring", ring 12) ]

(* every stage-1/2 variant *)
let variants =
  List.concat_map
    (fun use_mod ->
      List.map
        (fun return_jfs ->
          ( Fmt.str "mod=%b,ret=%b" use_mod return_jfs,
            Config.make ~kind:Jump_function.Polynomial ~use_mod ~return_jfs () ))
        [ true; false ])
    [ true; false ]

(* The IR the driver kept for [proc] against one built now, over the
   completed return-jump-function table. *)
let kept_vs_fresh (t : Driver.t) cx (proc : Prog.proc) =
  let kept = Hashtbl.find t.irs proc.pname in
  let fresh =
    Jump_function.build_ir ?oracle:(Driver.oracle t) ~modref:t.modref cx proc
  in
  List.for_all
    (fun kind ->
      site_jfs_equal
        (Jump_function.build_site_jfs ~kind kept)
        (Jump_function.build_site_jfs ~kind fresh))
    Jump_function.all_kinds

let test_kept_ir_equals_fresh () =
  List.iter
    (fun (name, prog) ->
      let cx = Jump_function.context prog in
      let a = Driver.prepare prog in
      List.iter
        (fun (label, config) ->
          let t = Driver.solve config a in
          List.iter
            (fun (p : Prog.proc) ->
              if not (Callgraph.in_cycle t.cg p.pname) then
                check Alcotest.bool
                  (Fmt.str "%s/%s/%s: kept IR = fresh IR" name label p.pname)
                  true (kept_vs_fresh t cx p))
            prog.procs)
        variants)
    (programs ())

(* [p] and [q] form a cycle that [main] enters at [p], so stage 1 builds
   [p] first, while [q] has no return jump function yet.  [p]'s own
   return jump function reads [v] after the call to [q]; that evaluation
   asks the oracle, finds no entry for [q], and memoizes [v] as unknown.
   Once [q]'s entry exists ([b] = 7 on every exit), a fresh build of [p]
   sees [v] = 7, so the call [s(v)] gets a constant jump function that
   [p]'s stage-1 IR cannot give. *)
let cycle_src =
  "program main\n\
   integer k\n\
   k = 3\n\
   call p(k, 3)\n\
   end\n\
   subroutine p(a, n)\n\
   integer a, n, v\n\
   v = 0\n\
   call q(v, n)\n\
   a = v\n\
   call s(v)\n\
   end\n\
   subroutine q(b, n)\n\
   integer b, n, w\n\
   if (n .gt. 0) then\n\
   w = 0\n\
   call p(w, n - 1)\n\
   end if\n\
   b = 7\n\
   end\n\
   subroutine s(c)\n\
   integer c\n\
   print *, c\n\
   end\n"

let test_cycle_member_needs_rebuild () =
  let prog = Sema.parse_and_resolve cycle_src in
  let cx = Jump_function.context prog in
  let cg = Callgraph.build prog in
  let modref = Modref.compute cg in
  (* stage 1 by hand, keeping every IR it builds *)
  let table = Hashtbl.create 8 in
  let oracle = Jump_function.oracle_of_table table in
  let stage1 = Hashtbl.create 8 in
  let build name =
    Jump_function.build_ir ~oracle ~modref cx (Prog.find_proc_exn prog name)
  in
  List.iter
    (fun name ->
      let ir = build name in
      Hashtbl.replace table name (Jump_function.build_ret_jf ~modref ir);
      Hashtbl.replace stage1 name ir)
    (Callgraph.bottom_up cg);
  let site_jfs ir = Jump_function.build_site_jfs ~kind:Polynomial ir in
  check Alcotest.bool "p is a cycle member" true (Callgraph.in_cycle cg "p");
  let stale = site_jfs (Hashtbl.find stage1 "p")
  and sound = site_jfs (build "p") in
  check Alcotest.bool
    (Fmt.str "p's stage-1 IR differs from a fresh build:@.%a@.vs@.%a"
       pp_site_jfs stale pp_site_jfs sound)
    false
    (site_jfs_equal stale sound);
  let to_s =
    List.find (fun (s : Jump_function.site_jf) -> s.sf_callee = "s") sound
  in
  check Alcotest.bool "the fresh build sees v = 7 at the call of s" true
    (Symbolic.equal to_s.sf_formals.(0) (Symbolic.const 7));
  (* the driver rebuilt p, so its kept IR is the fresh one *)
  let t = Driver.analyze Config.default prog in
  List.iter
    (fun (p : Prog.proc) ->
      check Alcotest.bool (p.pname ^ ": driver IR = fresh IR") true
        (kept_vs_fresh t cx p))
    prog.procs;
  check Alcotest.string "CONSTANTS see v = 7 in s" "c=7"
    (List.assoc "s" (Driver.constants t)
    |> List.map (fun (param, c) ->
           Fmt.str "%s=%d"
             (Prog.param_name prog (Prog.find_proc_exn prog "s") param)
             c)
    |> String.concat ",")

(* ---- counters ---- *)

let counted config prog =
  let t = Telemetry.create () in
  ignore (Telemetry.with_reporter t (fun () -> Driver.analyze config prog));
  fun name -> Option.value ~default:0 (Telemetry.counter t name)

let nprocs (prog : Prog.t) = List.length prog.procs

let test_build_ir_once_acyclic () =
  let prog = generated ~seed:5 120 in
  let cg = Callgraph.build prog in
  check Alcotest.bool "generated programs are acyclic" false
    (List.exists (Callgraph.in_cycle cg) cg.nodes);
  List.iter
    (fun return_jfs ->
      let c = counted (Config.make ~kind:Passthrough ~return_jfs ()) prog in
      check Alcotest.int
        (Fmt.str "jf.build_ir = procs (return_jfs=%b)" return_jfs)
        (nprocs prog) (c "jf.build_ir"))
    [ true; false ]

let test_build_ir_ring () =
  let n = 30 in
  let prog = ring n in
  let c = counted Config.default prog in
  check Alcotest.int "jf.build_ir = procs + cycle members" (nprocs prog + n)
    (c "jf.build_ir");
  let c = counted (Config.make ~kind:Passthrough ~return_jfs:false ()) prog in
  check Alcotest.int "without return jump functions: procs" (nprocs prog)
    (c "jf.build_ir")

let test_program_walks_constant () =
  let walks n =
    counted Config.default (generated ~seed:3 n) "driver.program_walks"
  in
  let w200 = walks 200 in
  check Alcotest.bool "prepare walks the program" true (w200 > 0);
  check Alcotest.int "program walks at N = 200 and N = 800" w200 (walks 800)

(* decoded artifacts rebuild the IR context and solve identically *)
let test_decoded_artifacts () =
  List.iter
    (fun (name, prog) ->
      let a = Driver.prepare prog in
      let t = Telemetry.create () in
      let a' =
        Telemetry.with_reporter t (fun () ->
            Driver.artifacts_to_string a
            |> Driver.artifacts_of_string |> Option.get)
      in
      check (Alcotest.option Alcotest.int) (name ^ ": one walk on decode")
        (Some 1)
        (Telemetry.counter t "driver.program_walks");
      check Alcotest.string (name ^ ": same CONSTANTS after a round trip")
        (Fmt.str "%a" Driver.pp_constants (Driver.solve Config.default a))
        (Fmt.str "%a" Driver.pp_constants (Driver.solve Config.default a')))
    [ ("ring", ring 8); ("generated", generated ~seed:2 30) ]

let suite =
  [
    ("kept stage-1 IR equals a fresh build", `Quick, test_kept_ir_equals_fresh);
    ("cycle members need a rebuild", `Quick, test_cycle_member_needs_rebuild);
    ("one IR build per procedure (acyclic)", `Quick, test_build_ir_once_acyclic);
    ("IR builds on a ring", `Quick, test_build_ir_ring);
    ("program walks do not grow with N", `Quick, test_program_walks_constant);
    ("decoded artifacts solve identically", `Quick, test_decoded_artifacts);
  ]
