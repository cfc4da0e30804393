(** "Complete propagation" (paper Table 3, column 3): iterate
    interprocedural constant propagation with dead-code elimination until no
    more code dies, resetting all CONSTANTS to ⊤ between rounds.

    Re-analysis rounds share staged {!Driver} artifacts: procedures DCE
    left untouched (with untouched transitive callees) keep their
    CFG/SSA/symbolic IR and return jump functions from the previous
    round. *)

open Ipcp_frontend

type 'elt generic_outcome = {
  final : 'elt Driver.analysis_result;
      (** analysis of the final, DCE-stable program *)
  substituted : int;  (** substitution count on the final program *)
  dce_rounds : int;  (** rounds that actually removed code *)
  degraded : Ipcp_support.Budget.reason list;
      (** budget exhaustions hit along the way; empty on a precise run *)
}

type outcome = Ipcp_analysis.Const_lattice.t generic_outcome

(** Complete propagation for one analysis. *)
module Make (A : Ipcp_analysis.Analysis_sig.S) : sig
  (** [iterate artifacts first] continues from a prepared program and its
      already-solved first round ([first] must be solved over
      [artifacts]): sweep, re-prepare and re-solve until no more code
      dies.  The final count substitutes from the last round's SCCP, so
      no SCCP runs twice.  [budget] (default: built from [first]'s
      configuration) bounds the number of re-analysis rounds; on
      exhaustion the current round's (sound) result is kept and the
      outcome is marked degraded. *)
  val iterate :
    ?budget:Ipcp_support.Budget.t ->
    ?max_rounds:int ->
    Driver.artifacts ->
    A.L.t Driver.analysis_result ->
    A.L.t generic_outcome

  (** [run ~config prog]: prepare, solve the first round, {!iterate}. *)
  val run :
    ?budget:Ipcp_support.Budget.t ->
    ?config:Config.t ->
    ?max_rounds:int ->
    Prog.t ->
    A.L.t generic_outcome
end

(** {1 The constant-propagation instantiation} *)

val run :
  ?budget:Ipcp_support.Budget.t ->
  ?config:Config.t ->
  ?max_rounds:int ->
  Prog.t ->
  outcome
