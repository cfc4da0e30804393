open Ipcp_frontend

type 'elt generic_outcome = {
  final : 'elt Driver.analysis_result;
      (** analysis of the final (DCE-stable) program *)
  substituted : int;  (** substitution count on the final program *)
  dce_rounds : int;  (** rounds that actually removed code *)
  degraded : Ipcp_support.Budget.reason list;
      (** budget exhaustions hit along the way (iteration budget and the
          final round's propagation); each round is individually sound,
          so stopping early only costs precision *)
}

type outcome = Ipcp_analysis.Const_lattice.t generic_outcome

module Make (A : Ipcp_analysis.Analysis_sig.S) = struct
  module D = Driver.Make (A)

  let iterate ?budget ?(max_rounds = 10) artifacts
      (first : A.L.t Driver.analysis_result) : A.L.t generic_outcome =
    let module Telemetry = Ipcp_telemetry.Telemetry in
    let config = first.Driver.config in
    let budget =
      match budget with
      | Some b -> b
      | None -> Config.budget ~label:"complete" config
    in
    let rec loop artifacts (t : A.L.t Driver.analysis_result) rounds =
      Telemetry.incr "complete.rounds";
      (* fold constant branches per procedure using the seeded SCCP; the
         same SCCP results justify the final substitution *)
      let swept =
        Telemetry.span "complete:round" (fun () ->
            List.map
              (fun (proc : Prog.proc) ->
                let sccp = D.sccp_for t proc.pname in
                let proc', changed =
                  Ipcp_analysis.Dce.run ~cond_consts:sccp.cond_consts proc
                in
                (proc, sccp, proc', changed))
              t.Driver.prog.Prog.procs)
      in
      let changed =
        List.filter_map
          (fun ((p : Prog.proc), _, _, ch) -> if ch then Some p.pname else None)
          swept
      in
      if
        changed <> [] && rounds < max_rounds
        && Ipcp_support.Budget.tick budget
      then begin
        let procs = List.map (fun (_, _, p, _) -> p) swept in
        let prog' = { t.Driver.prog with Prog.procs } in
        let unchanged name = not (List.mem name changed) in
        let artifacts' =
          Driver.prepare_reusing ~prev:artifacts ~unchanged prog'
        in
        loop artifacts' (D.solve config artifacts') (rounds + 1)
      end
      else begin
        let substituted =
          List.fold_left
            (fun acc (proc, sccp, _, _) ->
              acc + snd (Substitute.apply_proc t proc sccp))
            0 swept
        in
        Telemetry.add "complete.dce_rounds" rounds;
        let degraded =
          Driver.degraded t
          @
          match Ipcp_support.Budget.exhausted budget with
          | None -> []
          | Some reason -> [ reason ]
        in
        Telemetry.add "complete.degraded" (List.length degraded);
        { final = t; substituted; dce_rounds = rounds; degraded }
      end
    in
    loop artifacts first 0

  let run ?budget ?(config = Config.polynomial_with_mod) ?max_rounds
      (prog : Prog.t) : A.L.t generic_outcome =
    let budget =
      match budget with
      | Some b -> b
      | None -> Config.budget ~label:"complete" config
    in
    let artifacts = Driver.prepare prog in
    iterate ~budget ?max_rounds artifacts (D.solve config artifacts)
end

include Make (Ipcp_analysis.Const_analysis)
