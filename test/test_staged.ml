(* Staged-API contract tests.

   The staged pipeline — [Driver.prepare] once, [Driver.solve] per
   configuration — must be observationally identical to the legacy
   one-shot [Driver.analyze] for every configuration the paper's tables
   use, on every suite program; the parallel tables must render
   byte-identically to the sequential ones; and complete propagation must
   actually reuse stage-1/2 artifacts for unchanged procedures between
   DCE rounds. *)

open Ipcp_core
open Ipcp_suite
open Ipcp_telemetry

let check = Alcotest.check

(* every configuration exercised by Tables 2 and 3 *)
let all_configs =
  List.map (fun (label, c) -> ("t2:" ^ label, c)) Config.table2_configs
  @ [
      ("t3:poly_no_mod", Config.polynomial_no_mod);
      ("t3:poly_mod", Config.polynomial_with_mod);
      ("t3:intra_only", Config.intraprocedural_only);
    ]

let test_staged_equals_legacy () =
  List.iter
    (fun (e : Registry.entry) ->
      let prog = Registry.program e in
      let artifacts = Driver.prepare prog in
      List.iter
        (fun (label, config) ->
          let staged = Driver.solve config artifacts in
          let legacy = Driver.analyze config prog in
          check Alcotest.int
            (Fmt.str "%s/%s constants_count" e.name label)
            (Driver.constants_count legacy)
            (Driver.constants_count staged);
          check Alcotest.string
            (Fmt.str "%s/%s CONSTANTS sets" e.name label)
            (Fmt.str "%a" Driver.pp_constants legacy)
            (Fmt.str "%a" Driver.pp_constants staged))
        all_configs)
    Registry.entries

(* Every Table 2 and Table 3 cell comes out of one prepare per program
   and one solve per configuration; each must equal a fresh
   analyze-then-substitute of its configuration, under both analyses. *)
module Tables_test (A : Ipcp_analysis.Analysis_sig.S) = struct
  module T = Tables.Make (A)
  module Sub = Substitute.Make (A)
  module Comp = Complete.Make (A)

  let check_cells analysis =
    List.iter
      (fun (e : Registry.entry) ->
        let prog = Registry.program e in
        let p = T.program ~check:ignore e in
        (* in [all_configs] order *)
        let cells =
          [
            p.t2.ret_poly;
            p.t2.ret_pass;
            p.t2.ret_intra;
            p.t2.ret_lit;
            p.t2.noret_poly;
            p.t2.noret_pass;
            p.t3.poly_no_mod;
            p.t3.poly_mod;
            p.t3.intra_only;
          ]
        in
        List.iter2
          (fun (label, config) cell ->
            check Alcotest.int
              (Fmt.str "%s/%s/%s substituted" A.name e.name label)
              (Sub.count (Config.with_analysis analysis config) prog)
              cell)
          all_configs cells;
        check Alcotest.int
          (Fmt.str "%s/%s/t3:complete substituted" A.name e.name)
          (Comp.run
             ~config:(Config.with_analysis analysis Config.polynomial_with_mod)
             prog)
            .substituted p.t3.complete)
      Registry.entries
end

let test_table_cells_equal_fresh_counts () =
  let module Const = Tables_test (Ipcp_analysis.Const_analysis) in
  let module Copy = Tables_test (Ipcp_analysis.Copy_analysis) in
  Const.check_cells `Const;
  Copy.check_cells `Copy

(* One prepare per program (plus one per DCE round that changed code)
   and one solve per distinct configuration: 8 per program, plus one
   per DCE round, and Table 4's constant-propagation column under copy. *)
let test_tables_solve_once () =
  List.iter
    (fun (analysis, expected_solves) ->
      let t = Telemetry.create () in
      let o =
        Telemetry.with_reporter t (fun () ->
            Ipcp_serve.Jobs.tables ~analysis ~certify:true ~jobs:1 ())
      in
      let label = Config.analysis_name analysis in
      check Alcotest.int (label ^ ": exit 0") 0 o.code;
      check Alcotest.(option int) (label ^ ": program walks") (Some 15)
        (Telemetry.counter t "driver.program_walks");
      let rec solves spans =
        List.fold_left
          (fun acc (s : Telemetry.span_snapshot) ->
            acc
            + (if s.sp_name = "solve" then s.sp_calls else 0)
            + solves s.sp_children)
          0 spans
      in
      check Alcotest.int (label ^ ": solves") expected_solves
        (solves (Telemetry.spans t)))
    [ (`Const, 99); (`Copy, 111) ]

let test_tables_parallel_determinism () =
  List.iter
    (fun analysis ->
      let render jobs =
        (Ipcp_serve.Jobs.tables ~analysis ~certify:true ~jobs ()).out
      in
      let sequential = render 1 in
      check Alcotest.string
        (Config.analysis_name analysis ^ ": jobs=4 byte-identical to jobs=1")
        sequential (render 4);
      check Alcotest.bool "tables render non-empty" true
        (String.length sequential > 0))
    [ `Const; `Copy ]

(* the DCE example: the else-branch of [conf] is dead once mode=1 is
   known, so complete propagation iterates, and [sink] — unchanged by the
   elimination — must have its stage-1/2 artifacts reused *)
let dce_src =
  "program main\n\
   call conf(1)\n\
   end\n\
   subroutine conf(mode)\n\
   integer mode, v\n\
   if (mode .eq. 1) then\n\
   v = 10\n\
   else\n\
   v = 20\n\
   end if\n\
   call sink(v)\n\
   end\n\
   subroutine sink(b)\n\
   integer b\n\
   print *, b\n\
   end\n"

let test_complete_reuses_artifacts () =
  let prog = Ipcp_frontend.Sema.parse_and_resolve dce_src in
  let t = Telemetry.create () in
  let outcome = Telemetry.with_reporter t (fun () -> Complete.run prog) in
  check Alcotest.bool "iteration actually happened" true
    (outcome.Complete.dce_rounds >= 1);
  check Alcotest.bool "stage-1/2 artifacts reused between rounds" true
    (match Telemetry.counter t "driver.stage12_reused" with
    | Some n -> n > 0
    | None -> false);
  (* and reuse does not change the answer *)
  check Alcotest.int "complete result unaffected"
    (Complete.run prog).Complete.substituted outcome.Complete.substituted

let suite =
  [
    ("staged solve equals legacy analyze", `Quick, test_staged_equals_legacy);
    ("staged substitution counts agree", `Quick,
     test_table_cells_equal_fresh_counts);
    ("tables solve each configuration once", `Quick, test_tables_solve_once);
    ("parallel tables byte-identical", `Quick, test_tables_parallel_determinism);
    ("complete propagation reuses artifacts", `Quick,
     test_complete_reuses_artifacts);
  ]
