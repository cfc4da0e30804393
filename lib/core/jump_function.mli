(** Jump functions — the paper's subject (§3).

    Forward jump functions approximate the value of each actual parameter
    (and each common global) at each call site as a function of the
    enclosing procedure's entry values; the four implementations trade
    construction cost against the class of constants they can propagate.
    Return jump functions approximate what a call leaves in its function
    result, modified by-reference formals, and modified globals. *)

open Ipcp_frontend
open Ipcp_analysis

(** The four forward implementations, in increasing precision (§3.1):
    each propagates a superset of its predecessor's constants. *)
type kind = Literal | Intraconst | Passthrough | Polynomial

val kind_name : kind -> string
val all_kinds : kind list

module Int_map : Map.S with type key = int
module Str_map : Map.S with type key = string

(** Return jump functions of one procedure (§3.2), as symbolic expressions
    over the procedure's own entry values. *)
type ret_jf = {
  rj_result : Symbolic.t;  (** [Unknown] for subroutines *)
  rj_formals : Symbolic.t Int_map.t;  (** only formals in MOD *)
  rj_globals : Symbolic.t Str_map.t;  (** only globals in MOD *)
}

val empty_ret_jf : ret_jf

(** Forward jump functions of one call site: one per callee formal
    position, one per program global. *)
type site_jf = {
  sf_caller : string;
  sf_callee : string;
  sf_site : int;  (** program-wide call-site id *)
  sf_formals : Symbolic.t array;
  sf_globals : (string * Symbolic.t) list;
}

(** Per-procedure IR bundle: CFG, dominators, SSA, symbolic values, and the
    variable standing for each program global in this procedure. *)
type proc_ir = {
  pi_proc : Prog.proc;
  pi_cfg : Ipcp_ir.Cfg.t;
  pi_dom : Ipcp_ir.Dom.t;
  pi_ssa : Ipcp_ir.Ssa.t;
  pi_sv : Ssa_value.t;
  pi_global_vars : (string * Prog.var) list;
}

(** What every IR build reads of the whole program: a name → procedure
    index, the program's globals and the first free expression id.  Build
    it once per program ([Driver.prepare] keeps it in the artifacts); it
    holds no lazy or mutable state beyond the index, which nothing
    writes after construction. *)
type context = private {
  cx_prog : Prog.t;
  cx_procs : Prog.proc_index;
  cx_globals : Prog.global list;  (** {!Prog.all_globals} *)
  cx_next_expr_id : int;  (** {!Ipcp_ir.Lower.expr_id_ceiling} *)
}

(** One pass over the program. *)
val context : Prog.t -> context

(** Build the IR bundle.  [modref] drives the call-kill sets; [oracle]
    plugs return-jump-function evaluation into call definitions.  Costs
    time linear in the procedure, not in the program. *)
val build_ir :
  ?oracle:Ssa_value.oracle -> modref:Modref.t -> context -> Prog.proc -> proc_ir

(** An oracle evaluating return jump functions from a table, over constant
    actuals only (the paper's §3.2 rule). *)
val oracle_of_table : (string, ret_jf) Hashtbl.t -> Ssa_value.oracle

(** Return jump functions of one procedure: the meet of each value's
    symbolic expression over all reachable exits.  With worst-case MOD
    information only the function-result jump function is produced. *)
val build_ret_jf : modref:Modref.t -> proc_ir -> ret_jf

(** Forward jump functions for every call site of a procedure, restricted
    to what [kind] can express. *)
val build_site_jfs : kind:kind -> proc_ir -> site_jf list

(** Total expression size at a site — the construction/evaluation cost
    proxy of §3.1.5. *)
val site_cost : site_jf -> int

(** Total support size at a site (the polynomial propagation bound carries
    a |support(J)| factor). *)
val site_support : site_jf -> int

val pp_site : site_jf Fmt.t
