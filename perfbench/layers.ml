(* The per-layer metrics every traced op yields from its spans and
   counts.  BENCHMARK.json lists every per-layer metric; a traced run
   prints all of them, and a layer its workload never calls reads 0. *)

(* Which share a span's self time counts toward. *)
let share_of = function
  | "frontend.parse" | "frontend.sema" -> "share.frontend"
  | "driver.prepare" -> "share.prepare"
  | "core.stage12" -> "share.stage12"
  | "core.solve" -> "share.solve"
  | "core.substitute" | "core.complete" -> "share.substitute_complete"
  | "certify.check" -> "share.certify"
  | "incr.update" | "incr.export" -> "share.incr"
  | "serve.request_parse" | "serve.unmarshal" | "serve.cache_store" | "serve.render" ->
    "share.serve"
  | _ -> "share.other"

(* The metrics every traced op yields from its spans and counts: time
   per op in each layer, work per op, and each layer's share of the
   self time spent inside ops (base: all self time in ops). *)
let common (s : Trace.summary) ~n =
  let per name = s.Trace.per_op_ms name and cnt name = s.Trace.per_op_count name in
  let share key =
    Util.fsum
      (List.filter_map
         (fun (name, v) -> if share_of name = key then Some v else None)
         s.Trace.self_share)
  in
  Util.
    [
      metric ~n "frontend.parse_ms" "ms" (per "frontend.parse");
      metric ~n "frontend.sema_ms" "ms" (per "frontend.sema");
      metric ~n "driver.prepare_ms" "ms" (per "driver.prepare");
      metric ~n "callgraph.edges" "count" (cnt "callgraph.edges");
      metric ~n "core.stage12_ms" "ms" (per "core.stage12");
      metric ~n "core.solve_ms" "ms" (per "core.solve");
      metric ~n "solver.iterations" "count" (cnt "solver.iterations");
      metric ~n "solver.jf_evaluations" "count" (cnt "solver.jf_evaluations");
      metric ~n "solver.meets" "count" (cnt "solver.meets");
      metric ~n "jf.site_cost" "count" (cnt "jf.site_cost");
      metric ~n "jf.site_support" "count" (cnt "jf.site_support");
      metric ~n "core.substitute_ms" "ms" (per "core.substitute");
      metric ~n "substitute.total" "count" (cnt "substitute.total");
      metric ~n "core.complete_ms" "ms" (per "core.complete");
      metric ~n "complete.dce_rounds" "count" (cnt "complete.dce_rounds");
      metric ~n "certify.check_ms" "ms" (per "certify.check");
      metric ~n "certify.obligations" "count" (cnt "certify.obligations");
    ]
  @ List.map
      (fun key ->
        Util.metric ~n
          ~base:(Printf.sprintf "%.3f ms self time per op" s.Trace.self_ms_per_op)
          key "ratio" (share key))
      (List.sort_uniq compare (List.map (fun (name, _) -> share_of name) s.Trace.self_share))

(* Attribution calls, made outside every op: the lexer and MOD/REF on
   each (file, source, program) input.  Returns the tokens lexed. *)
let lex_and_modref inputs =
  Trace.outside (fun () ->
      List.fold_left
        (fun tokens (file, source, prog) ->
          let toks =
            Trace.span "frontend.lex" (fun () -> Ipcp_frontend.Lexer.tokenize ~file source)
          in
          let cg = Ipcp_core.Callgraph.build prog in
          ignore (Trace.span "modref.compute" (fun () -> Ipcp_core.Modref.compute cg));
          tokens + List.length toks)
        0 inputs)

let lex_and_modref_metrics (s : Trace.summary) ~tokens =
  let lex = s.Trace.outside_ms "frontend.lex" in
  let modref = s.Trace.outside_ms "modref.compute" in
  Util.
    [
      metric ~n:(List.length lex) "frontend.lex_ms" "ms" (mean lex);
      metric ~n:(List.length lex) "frontend.tokens_per_s" "1/s"
        (ratio (float_of_int tokens) (fsum lex /. 1e3));
      metric ~n:(List.length modref) "modref.compute_ms" "ms" (mean modref);
    ]
