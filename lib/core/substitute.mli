(** Textual constant substitution — the paper's effectiveness metric
    (Metzger–Stroud): the number of scalar-variable uses replaced by their
    compile-time constant values, justified by SCCP seeded with the
    discovered CONSTANTS entry facts.

    Definition contexts (assignment targets, [read] targets, do-variables)
    and by-reference actuals whose storage the callee may modify are never
    substituted. *)

open Ipcp_frontend

type stats = {
  total : int;
  by_proc : (string * int) list;
  sccp_degraded : string list;
      (** procedures whose SCCP pass exhausted its budget, in program
          order; they contribute no substitutions *)
}

(** Substitute into one procedure given its seeded SCCP result.
    Polymorphic in the analysis — only MOD summaries and the SCCP fact
    tables are consulted. *)
val apply_proc :
  'elt Driver.analysis_result ->
  Prog.proc ->
  Ipcp_analysis.Sccp.result ->
  Prog.proc * int

(** The substitution pass for one analysis. *)
module Make (A : Ipcp_analysis.Analysis_sig.S) : sig
  (** Substitute over the whole program of an analysis.  [jobs > 1]
      distributes the independent per-procedure passes across worker
      domains; output is identical to the sequential run. *)
  val apply : ?jobs:int -> A.L.t Driver.analysis_result -> Prog.t * stats

  (** [count config prog]: analyze then substitute, returning the count —
      a fresh-prepare reference for one cell of Tables 2/3. *)
  val count : Config.t -> Prog.t -> int
end

(** {1 The constant-propagation instantiation} *)

val apply : ?jobs:int -> Driver.t -> Prog.t * stats
val count : Config.t -> Prog.t -> int
