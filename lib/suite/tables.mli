(** Regeneration harness for the paper's Tables 2 and 3: the substitution
    counts of every analyzer configuration on every suite program.

    Each suite program is one task ({!Make.program}): one
    {!Ipcp_core.Driver.prepare}, then one solve and one substitution per
    distinct configuration, shared by every cell that reads it.  Tasks
    fan across worker domains with deterministic (input-order) results,
    so the printed tables are byte-identical for every [jobs]. *)

type table2_row = {
  t2_name : string;
  ret_poly : int;
  ret_pass : int;
  ret_intra : int;
  ret_lit : int;
  noret_poly : int;
  noret_pass : int;
}

type table3_row = {
  t3_name : string;
  poly_no_mod : int;
  poly_mod : int;
  complete : int;
  intra_only : int;
}

(** The subsumption comparison (Table 4, copy mode only): facts found
    by constant propagation vs by copy propagation under the
    polynomial+MOD configuration.  Copy propagation subsumes constant
    propagation — its constant facts match and its pure copy facts come
    on top. *)
type table4_row = {
  t4_name : string;
  t4_const : int;  (** CONSTANTS facts under constant propagation *)
  t4_copy_const : int;  (** constant facts under copy propagation *)
  t4_copies : int;  (** additional pure copy facts (Copy bindings) *)
}

(** One suite program's rows. *)
type 'r program = {
  t2 : table2_row;
  t3 : table3_row;
  t4 : table4_row option;  (** under copy propagation only *)
  checked : 'r;
      (** [check] applied to the {!Ipcp_core.Config.default} result the
          Table 2 pass-through column counted (certification) *)
}

(** The tables under one analysis. *)
module Make (A : Ipcp_analysis.Analysis_sig.S) : sig
  (** One program's rows.  [check] runs inside the task, on the
      program's {!Ipcp_core.Config.default} result, so no solved result
      outlives the task.  [?max_steps]/[?deadline_ms] bound every
      analysis pass (see {!Ipcp_core.Config.with_budget}); an exhausted
      pass degrades soundly, so a generous budget reproduces the
      unbudgeted counts exactly. *)
  val program :
    ?max_steps:int ->
    ?deadline_ms:int ->
    check:(A.L.t Ipcp_core.Driver.analysis_result -> 'r) ->
    Registry.entry ->
    'r program

  (** Every suite program, in registry order; [jobs] worker domains. *)
  val programs :
    ?jobs:int ->
    ?max_steps:int ->
    ?deadline_ms:int ->
    check:(A.L.t Ipcp_core.Driver.analysis_result -> 'r) ->
    unit ->
    'r program list
end

val pp_table2 : table2_row list Fmt.t
val pp_table3 : table3_row list Fmt.t

(** Tables 1, 2 and 3 (plus Table 4 when the rows carry it), formatted
    like the paper's evaluation section. *)
val pp : 'elt program list Fmt.t
