(** The program call graph: a multigraph whose edges carry call sites, with
    Tarjan SCCs for bottom-up/top-down traversal orders. *)

open Ipcp_frontend

type edge = {
  e_caller : string;
  e_callee : string;
  e_site : Prog.call_site;
}

type t = {
  prog : Prog.t;
  nodes : string list;
  edges : edge list;
  out_edges : (string, edge list) Hashtbl.t;
  in_edges : (string, edge list) Hashtbl.t;
  sccs : string list list;  (** reverse topological: callees first *)
  cyclic : (string, unit) Hashtbl.t;  (** see {!in_cycle} *)
}

val build : Prog.t -> t

val callees_of : t -> string -> edge list
val callers_of : t -> string -> edge list

(** Callees before callers (members of a cycle in arbitrary order). *)
val bottom_up : t -> string list

val top_down : t -> string list

(** Is the procedure part of a recursive cycle? *)
val in_cycle : t -> string -> bool

val reachable_from_main : t -> string list

val pp : t Fmt.t
