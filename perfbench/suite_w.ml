(* Workload [suite]: one caller regenerating the paper's tables with
   certification, the body of [ipcp tables --certify].  The suite
   programs are small, so the time sits in the configuration-dependent
   suffix and the certifier rather than in stages 1-2. *)

open Ipcp_core
module Registry = Ipcp_suite.Registry
module Jobs = Ipcp_serve.Jobs
module Certify = Ipcp_certify.Certify

let golden_path = "test/goldens/tables_const.txt"

(* The output check: the tables are byte-equal to the golden, and every
   suite program has its witnessed certification line. *)
let check ~golden (o : Jobs.outcome) =
  let out = o.Jobs.out in
  let lines = Util.lines out in
  let witnessed name =
    let prefix = Printf.sprintf "--- certified [%s]: certified (" name in
    let suffix = " obligations, execution witnessed)" in
    List.exists
      (fun l ->
        Util.starts_with ~prefix l
        && String.length l > String.length prefix + String.length suffix
        &&
        let mid =
          String.sub l (String.length prefix)
            (String.length l - String.length prefix - String.length suffix)
        in
        String.sub l (String.length l - String.length suffix) (String.length suffix)
        = suffix
        && String.for_all (fun c -> c >= '0' && c <= '9') mid)
      lines
  in
  o.Jobs.code = 0
  && Util.starts_with ~prefix:golden out
  && List.for_all (fun (e : Registry.entry) -> witnessed e.name) Registry.entries

(* Sum of the Table 2 and Table 3 cells: the substitutions the op found. *)
let substituted out =
  let section = ref 0 in
  List.fold_left
    (fun acc l ->
      if Util.starts_with ~prefix:"Table 2:" l then section := 2
      else if Util.starts_with ~prefix:"Table 3:" l then section := 3
      else if Util.starts_with ~prefix:"--- " l then section := 0;
      let is_row =
        !section > 0
        && List.exists
             (fun (e : Registry.entry) -> Util.starts_with ~prefix:(e.name ^ " ") l)
             Registry.entries
      in
      if not is_row then acc
      else
        String.split_on_char ' ' l
        |> List.fold_left
             (fun acc w -> match int_of_string_opt w with Some n -> acc + n | None -> acc)
             acc)
    0 (Util.lines out)

let procs_per_op =
  lazy
    (Util.isum
       (List.map
          (fun e -> List.length (Registry.program e).Ipcp_frontend.Prog.procs)
          Registry.entries))

let op ~jobs () = Jobs.tables ~certify:true ~jobs ()

(* ---- the traced replica of [Jobs.tables ~certify:true] ----
   The same public calls the op makes, each wrapped in a span; the
   rendering is compared against the untraced op's, byte for byte. *)

let traced_solve a config =
  let main = (List.hd (Driver.artifacts_prog a).Ipcp_frontend.Prog.procs).pname in
  Trace.span "core.stage12" (fun () -> ignore (Driver.site_jfs_for a config main));
  let t = Trace.span "core.solve" (fun () -> Driver.solve config a) in
  let st = Solver.stats_of t.Driver.solution in
  Trace.count "solver.iterations" st.Solver.iterations;
  Trace.count "solver.jf_evaluations" st.Solver.jf_evaluations;
  Trace.count "solver.meets" st.Solver.meets;
  List.iter
    (fun sj ->
      Trace.count "jf.site_cost" (Jump_function.site_cost sj);
      Trace.count "jf.site_support" (Jump_function.site_support sj))
    t.Driver.site_jfs;
  t

let traced_prepare prog =
  let a = Trace.span "driver.prepare" (fun () -> Driver.prepare prog) in
  Trace.count "callgraph.edges" (List.length (Driver.artifacts_callgraph a).Callgraph.edges);
  a

let traced_count a config =
  let t = traced_solve a config in
  let _, st = Trace.span "core.substitute" (fun () -> Substitute.apply t) in
  Trace.count "substitute.total" st.Substitute.total;
  st.Substitute.total

let table2_row (e : Registry.entry) : Ipcp_suite.Tables.table2_row =
  let a = traced_prepare (Registry.program e) in
  let with_kind ?return_jfs kind =
    traced_count a (Config.make ~kind ?return_jfs ())
  in
  let ret_poly = with_kind Jump_function.Polynomial in
  let ret_pass = with_kind Jump_function.Passthrough in
  let ret_intra = with_kind Jump_function.Intraconst in
  let ret_lit = with_kind Jump_function.Literal in
  let noret_poly = with_kind ~return_jfs:false Jump_function.Polynomial in
  let noret_pass = with_kind ~return_jfs:false Jump_function.Passthrough in
  { t2_name = e.name; ret_poly; ret_pass; ret_intra; ret_lit; noret_poly; noret_pass }

let table3_row (e : Registry.entry) : Ipcp_suite.Tables.table3_row =
  let prog = Registry.program e in
  let a = traced_prepare prog in
  let c =
    Trace.span "core.complete" (fun () ->
        Complete.run ~config:Config.polynomial_with_mod prog)
  in
  Trace.count "complete.dce_rounds" c.Complete.dce_rounds;
  let poly_no_mod = traced_count a Config.polynomial_no_mod in
  let poly_mod = traced_count a Config.polynomial_with_mod in
  let intra_only = traced_count a Config.intraprocedural_only in
  { t3_name = e.name; poly_no_mod; poly_mod; complete = c.Complete.substituted; intra_only }

let certify_one (e : Registry.entry) =
  let a = traced_prepare (Registry.program e) in
  let t = traced_solve a Config.default in
  let r = Trace.span "certify.check" (fun () -> Certify.check t) in
  Trace.count "certify.obligations" r.Certify.obligations;
  Trace.count "certify.reports" 1;
  Trace.count "certify.witnessed" (if r.Certify.exec_checked then 1 else 0);
  r

let replica ~jobs () =
  let buf = Buffer.create 8192 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "Table 1: characteristics of the program test suite@.@.";
  Trace.span "suite.table1" (fun () -> Ipcp_suite.Metrics.pp_table1 ppf ());
  Format.fprintf ppf "@.Table 2: constants found through use of jump functions@.@.";
  Ipcp_suite.Tables.pp_table2 ppf
    (Ipcp_engine.Engine.map ~jobs table2_row Registry.entries);
  Format.fprintf ppf
    "@.Table 3: most precise jump function vs other propagation techniques@.@.";
  Ipcp_suite.Tables.pp_table3 ppf
    (Ipcp_engine.Engine.map ~jobs table3_row Registry.entries);
  Format.fprintf ppf "@.";
  let code =
    List.fold_left
      (fun code (e : Registry.entry) ->
        let r = certify_one e in
        if Certify.ok r then begin
          Format.fprintf ppf "--- certified [%s]: %a@." e.name Certify.pp_report r;
          code
        end
        else Jobs.exit_internal)
      0 Registry.entries
  in
  Format.pp_print_flush ppf ();
  { Jobs.out = Buffer.contents buf; err = ""; code }

(* Attribution calls outside the ops: the lexer, MOD/REF and the
   interpreter on every suite program.  Returns (tokens, steps). *)
let attribute () =
  let tokens =
    Layers.lex_and_modref
      (List.map (fun (e : Registry.entry) -> (e.name, e.source, Registry.program e)) Registry.entries)
  in
  let steps =
    Trace.outside (fun () ->
        List.fold_left
          (fun steps e ->
            let r =
              Trace.span "interp.run" (fun () -> Ipcp_interp.Interp.run (Registry.program e))
            in
            steps + r.Ipcp_interp.Interp.steps)
          0 Registry.entries)
  in
  (tokens, steps)

type state = { golden : string; jobs : int }

let setup _rep =
  let golden = Util.read_file golden_path in
  List.iter (fun e -> ignore (Registry.program e)) Registry.entries;
  let jobs = Ipcp_engine.Engine.default_jobs () in
  ignore (op ~jobs ());
  { golden; jobs }

(* The suite's inputs are the twelve fixed paper programs: the seed
   changes nothing. *)
let run ~seed:_ ~seconds ~trace =
  let st, setup_times = Util.timed_setup ~reps:5 ~teardown:ignore setup in
  let c = Util.new_checks () in
  let attempted = ref 0 in
  let lat = ref [] and done_at = ref [] and subs = ref 0 in
  let lat1 = ref [] and traced_lat = ref [] in
  let ok o =
    incr attempted;
    Util.check c (check ~golden:st.golden o)
      (lazy "tables output differs from the golden or lacks a witnessed certification")
  in
  let start = Util.now_ns () in
  let deadline = Int64.add start (Int64.of_float (seconds *. 1e9)) in
  let timed f =
    let t0 = Util.now_ns () in
    let o = f () in
    let t1 = Util.now_ns () in
    (o, Util.ms_between t0 t1, t1)
  in
  let k = ref 0 in
  while Int64.compare (Util.now_ns ()) deadline < 0 do
    (match (trace, !k mod 3) with
    | false, _ | true, 0 ->
      let o, ms, t1 = timed (op ~jobs:st.jobs) in
      if ok o then subs := substituted o.Jobs.out;
      lat := ms :: !lat;
      done_at := (t1, 1.) :: !done_at
    | true, 1 ->
      let o, ms, _ = timed (op ~jobs:1) in
      ignore (ok o);
      lat1 := ms :: !lat1
    | true, _ ->
      let o, ms, _ = timed (fun () -> Trace.op (replica ~jobs:st.jobs)) in
      ignore (ok o);
      traced_lat := ms :: !traced_lat);
    incr k
  done;
  let lat = List.rev !lat and done_at = List.rev !done_at in
  let procs = float_of_int (Lazy.force procs_per_op) in
  let rates = Util.windowed_rate ~start ~width:10 done_at in
  let n = List.length lat in
  let metrics =
    if not trace then
      Util.
        [
          metric ~n:(List.length setup_times) "setup_s" "s" (median setup_times);
          metric ~n:(List.length rates) "ops_per_s" "1/s" (median rates);
          metric ~n "op_ms_p50" "ms" (median lat);
          metric ~n "op_ms_p90" "ms" (quantile lat 0.9);
          metric ~n:(List.length rates) "procs_per_s" "1/s" (median rates *. procs);
          metric "peak_rss_mb" "MB" (peak_rss_mb ());
          metric "constants_substituted" "count" (float_of_int !subs);
        ]
    else begin
      let tokens, steps = attribute () in
      let s = Trace.summarize () in
      let n_t = s.Trace.ops in
      let reports = s.per_op_count "certify.reports" in
      let jobs1 = Util.median !lat1 and jobsn = Util.median lat in
      Layers.common s ~n:n_t
      @ Layers.lex_and_modref_metrics s ~tokens
      @ Util.
          [
            metric ~base:(Printf.sprintf "%.0f reports per op" reports)
              "certify.witnessed_ratio" "ratio"
              (ratio (s.per_op_count "certify.witnessed") reports);
            metric ~n:(List.length (s.outside_ms "interp.run")) "interp.run_ms" "ms"
              (mean (s.outside_ms "interp.run"));
            metric "interp.steps" "count"
              (float_of_int steps /. float_of_int (List.length Registry.entries));
            metric ~n:(List.length !lat1) "engine.tables_ms.jobs1" "ms" jobs1;
            metric ~n "engine.tables_ms.jobsN" "ms" jobsn;
            metric ~base:(Printf.sprintf "jobs1 %.3f ms / jobs%d %.3f ms" jobs1 st.jobs jobsn)
              "engine.speedup" "ratio" (ratio jobs1 jobsn);
            metric ~n:n_t ~base:(Printf.sprintf "untraced op %.3f ms" jobsn)
              "trace.overhead_ratio" "ratio"
              (ratio (median !traced_lat) jobsn);
          ]
    end
  in
  {
    Util.attempted = !attempted;
    failed = c.bad;
    metrics;
    extra =
      [
        ("ops", Ipcp_telemetry.Json.Int n);
        ("procs_per_op", Ipcp_telemetry.Json.Int (Lazy.force procs_per_op));
        ("jobs", Ipcp_telemetry.Json.Int st.jobs);
      ];
    failures = c.msgs;
  }
