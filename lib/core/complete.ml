open Ipcp_frontend

type 'elt generic_outcome = {
  final : 'elt Driver.analysis_result;
      (** analysis of the final (DCE-stable) program *)
  substituted : int;  (** substitution count on the final program *)
  substitution : Prog.t * Substitute.stats;
      (** the final program substituted from the last round's SCCP *)
  dce_rounds : int;  (** rounds that actually removed code *)
  degraded : Ipcp_support.Budget.reason list;
      (** budget exhaustions hit along the way (iteration budget and the
          final round's propagation); each round is individually sound,
          so stopping early only costs precision *)
}

type outcome = Ipcp_analysis.Const_lattice.t generic_outcome

module Make (A : Ipcp_analysis.Analysis_sig.S) = struct
  module D = Driver.Make (A)

  let iterate ?budget ?(max_rounds = 10) ?sccps artifacts
      (first : A.L.t Driver.analysis_result) : A.L.t generic_outcome =
    let module Telemetry = Ipcp_telemetry.Telemetry in
    let config = first.Driver.config in
    let budget =
      match budget with
      | Some b -> b
      | None -> Config.budget ~label:"complete" config
    in
    let rec loop artifacts (t : A.L.t Driver.analysis_result) sccps rounds =
      Telemetry.incr "complete.rounds";
      (* fold constant branches per procedure using the seeded SCCP; the
         same SCCP results justify the final substitution *)
      let swept =
        Telemetry.span "complete:round" (fun () ->
            let procs = t.Driver.prog.Prog.procs in
            let sccps =
              match sccps with
              | Some sccps -> sccps
              | None ->
                List.map (fun (proc : Prog.proc) -> D.sccp_for t proc.pname) procs
            in
            List.map2
              (fun (proc : Prog.proc) (sccp : Ipcp_analysis.Sccp.result) ->
                let proc', changed =
                  Ipcp_analysis.Dce.run ~cond_consts:sccp.cond_consts proc
                in
                (sccp, proc', changed))
              procs sccps)
      in
      let changed = Hashtbl.create 16 in
      List.iter
        (fun (_, (p : Prog.proc), ch) -> if ch then Hashtbl.replace changed p.pname ())
        swept;
      if
        Hashtbl.length changed > 0 && rounds < max_rounds
        && Ipcp_support.Budget.tick budget
      then begin
        let procs = List.map (fun (_, p, _) -> p) swept in
        let prog' = { t.Driver.prog with Prog.procs } in
        let unchanged name = not (Hashtbl.mem changed name) in
        let artifacts' =
          Driver.prepare_reusing ~prev:artifacts ~unchanged prog'
        in
        loop artifacts' (D.solve config artifacts') None (rounds + 1)
      end
      else begin
        let substitution =
          Substitute.of_sccps t (List.map (fun (sccp, _, _) -> sccp) swept)
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
        {
          final = t;
          substituted = (snd substitution).Substitute.total;
          substitution;
          dce_rounds = rounds;
          degraded;
        }
      end
    in
    loop artifacts first sccps 0

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
