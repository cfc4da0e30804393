(** Reference interpreter for resolved MiniFort programs.

    The interpreter serves three purposes in this repository:
    - it is the *soundness oracle* for interprocedural constant propagation:
      every (procedure, parameter, value) fact the analyzer reports is checked
      against the values observed at actual procedure entries;
    - it checks *behavioural equivalence* of transformed programs (constant
      substitution and dead-code elimination must preserve printed output);
    - it makes the examples runnable end to end.

    Semantics notes (FORTRAN-77 flavoured):
    - all arguments are passed by reference; non-lvalue actuals get a fresh
      temporary cell, array elements alias the caller's storage, and a whole
      array (or an element, by sequence association) can bind an array formal;
    - arrays are column-major with 1-based subscripts and runtime bounds
      checks;
    - integer division and real→integer assignment truncate toward zero;
    - [i ** n] with negative [n] follows integer arithmetic (0 for |i| > 1);
    - reading an uninitialized variable is a runtime error;
    - execution is bounded by a fuel counter so divergent programs terminate;
    - [goto] may jump within the current statement sequence or out of nested
      blocks, never into a block.

    Names are resolved once per run, not at every step.  A procedure is
    compiled when it is first called, into closures over an array frame:
    formals, the result variable and locals get slot indices, common
    globals get dense indices into a per-run array (keyed by
    [(gblock, gslot)]), and each call site caches its callee's code after
    its first execution.  Storage is still allocated on first touch, so
    uninitialized reads and entry snapshots behave as in a tree walker.
    Compilation does per node about the work one evaluation of the node
    does, so code that runs only once costs no more than walking it. *)

open Ipcp_frontend

type value = Vint of int | Vreal of float | Vbool of bool

let pp_value ppf = function
  | Vint n -> Fmt.int ppf n
  | Vreal f -> Fmt.pf ppf "%g" f
  | Vbool b -> Fmt.string ppf (if b then "T" else "F")

let equal_value a b =
  match (a, b) with
  | Vint x, Vint y -> x = y
  | Vreal x, Vreal y -> x = y
  | Vbool x, Vbool y -> x = y
  | (Vint _ | Vreal _ | Vbool _), _ -> false

type cell = value option ref

type storage =
  | Scalar of cell
  | Array of cell array  (** flat column-major cells *)

(** Snapshot taken at every procedure entry, used by the soundness oracle.
    Only scalar formals and scalar globals are recorded; [None] marks storage
    that was still uninitialized at entry. *)
type entry_snapshot = {
  es_proc : string;
  es_formals : (int * value option) list;
  es_globals : (string * value option) list;  (** keyed by {!Prog.global_key} *)
}

type outcome =
  | Finished  (** ran to [stop] or fell off the end of the main program *)
  | Out_of_fuel
  | Failed of string  (** runtime error message *)

type result = {
  outputs : string list;  (** lines printed, in order *)
  entries : entry_snapshot list;  (** procedure entries, in order *)
  steps : int;
  outcome : outcome;
}

exception Runtime of string

exception Out_of_fuel_exn

exception Stop_program

exception Return_from_proc

exception Jump of int  (** to a statement label *)

(* A frame holds one storage per slot; [unbound] marks a slot whose
   storage has not been touched yet.  It is compared physically and
   never written through (an empty array has no cells). *)
type frame = storage array

let unbound = Array [||]

(* A procedure's compiled code.  Formal [i] lives in slot [i]. *)
type code = {
  nslots : int;
  result_slot : int;  (** of a function's result variable *)
  body : frame -> unit;
  snap_globals : (string * int) list;
      (** scalar commons of the unit for entry snapshots: key, index *)
}

(* A procedure and, once it has been called, its code. *)
type proc_entry = { proc : Prog.proc; mutable code : code option }

(* An actual argument, compiled in the caller; how it binds depends on
   the callee's formal, known only when the call runs. *)
type actual =
  | Whole of Prog.var * int  (** a variable: bound by reference *)
  | Elem of Prog.var * int * (frame -> value) array
      (** an array element: aliased, or the start of a section *)
  | Temp of (frame -> value)  (** any other expression: a fresh temporary *)

(* A [print] argument. *)
type piece = Text of string | Value of (frame -> value)

type state = {
  procs : (string, proc_entry) Hashtbl.t;
      (** first unit of each name, as {!Prog.index_procs} *)
  mutable compiled : int;  (** procedures compiled so far *)
  gindex : (string * int, int) Hashtbl.t;  (** [(gblock, gslot)] → index *)
  mutable globals : storage array;  (** indexed by [gindex] *)
  mutable fuel : int;
  mutable outputs : string list;
  mutable entries : entry_snapshot list;
  mutable input : int list;  (** values consumed by [read] *)
  mutable total_steps : int;
  trace_entries : bool;
  watch : (int -> (value -> unit) option) option;
      (** asked once per compiled expression; a [Some] hook then observes
          every evaluation of that expression *)
}

let tick st =
  st.total_steps <- st.total_steps + 1;
  if st.fuel <= 0 then raise Out_of_fuel_exn;
  st.fuel <- st.fuel - 1

let runtime fmt = Fmt.kstr (fun m -> raise (Runtime m)) fmt

(* ------------------------------------------------------------------ *)
(* Storage allocation and array indexing.                              *)

let array_size dims = List.fold_left ( * ) 1 dims

let alloc_storage dims =
  match dims with
  | [] -> Scalar (ref None)
  | _ -> Array (Array.init (array_size dims) (fun _ -> ref None))

(* A variable's place: a frame slot when [>= 0], global index [-1 - p]
   otherwise. *)
let storage st (fr : frame) (v : Prog.var) p =
  if p >= 0 then begin
    let s = fr.(p) in
    if s != unbound then s
    else begin
      let s = alloc_storage v.vdims in
      fr.(p) <- s;
      s
    end
  end
  else begin
    let g = -1 - p in
    let s = st.globals.(g) in
    if s != unbound then s
    else begin
      let dims = match v.vkind with Prog.Kglobal g -> g.gdims | _ -> [] in
      let s = alloc_storage dims in
      st.globals.(g) <- s;
      s
    end
  end

let scalar_cell (v : Prog.var) = function
  | Scalar c -> c
  | Array _ -> runtime "array %s used as a scalar" v.vname

(* Column-major flat offset of 1-based subscripts. *)
let flat_offset (v : Prog.var) (idx : int array) =
  let n = Array.length idx in
  let rec go dims k stride acc =
    match dims with
    | [] when k = n -> acc
    | d :: dims' when k < n ->
      let i = idx.(k) in
      if i < 1 || i > d then
        runtime "subscript %d out of bounds 1..%d for %s" i d v.vname;
      go dims' (k + 1) (stride * d) (acc + ((i - 1) * stride))
    | _ -> runtime "wrong number of subscripts for %s" v.vname
  in
  go v.vdims 0 1 0

(* ------------------------------------------------------------------ *)
(* Value coercions and operators.                                      *)

let as_int ~what = function
  | Vint n -> n
  | Vreal f -> int_of_float f
  | Vbool _ -> runtime "logical value where integer expected (%s)" what

let as_bool ~what = function
  | Vbool b -> b
  | Vint _ | Vreal _ -> runtime "numeric value where logical expected (%s)" what

let numeric = function Vint _ | Vreal _ -> true | Vbool _ -> false

(* Only called on numeric values. *)
let real_of = function
  | Vint n -> float_of_int n
  | Vreal f -> f
  | Vbool _ -> assert false

(* Coerce a value for assignment into a variable of type [ty]. *)
let coerce ty v =
  match (ty, v) with
  | Prog.Tint, Vint _ | Prog.Treal, Vreal _ | Prog.Tlogical, Vbool _ -> v
  | Prog.Tint, Vreal f -> Vint (int_of_float f)
  | Prog.Treal, Vint n -> Vreal (float_of_int n)
  | Prog.Tlogical, (Vint _ | Vreal _) ->
    runtime "cannot store a number into a logical variable"
  | (Prog.Tint | Prog.Treal), Vbool _ ->
    runtime "cannot store a logical into a numeric variable"

let int_pow base ex =
  if ex >= 0 then begin
    let rec go acc b e = if e = 0 then acc else go (acc * b) b (e - 1) in
    go 1 base ex
  end
  else
    match base with
    | 1 -> 1
    | -1 -> if ex mod 2 = 0 then 1 else -1
    | 0 -> runtime "0 ** negative exponent"
    | _ -> 0

(* Arithmetic on anything but two integers: both operands as reals. *)
let arith_real fr a b =
  if numeric a && numeric b then Vreal (fr (real_of a) (real_of b))
  else runtime "logical operand in arithmetic"

let compare_num a b =
  match (a, b) with
  | Vint x, Vint y -> Int.compare x y
  | _ when numeric a && numeric b -> Float.compare (real_of a) (real_of b)
  | _ -> runtime "logical operand in comparison"

let vtrue = Vbool true
let vfalse = Vbool false
let vbool b = if b then vtrue else vfalse

(* Every operator is a closed function, so compiling a node allocates
   nothing for it.  Logical operators check both operands, whatever the
   first one's value. *)
let binop : Ast.binop -> value -> value -> value = function
  | Ast.Add -> (
    fun a b ->
      match (a, b) with
      | Vint x, Vint y -> Vint (x + y)
      | Vreal x, Vreal y -> Vreal (x +. y)
      | _ -> arith_real ( +. ) a b)
  | Ast.Sub -> (
    fun a b ->
      match (a, b) with
      | Vint x, Vint y -> Vint (x - y)
      | Vreal x, Vreal y -> Vreal (x -. y)
      | _ -> arith_real ( -. ) a b)
  | Ast.Mul -> (
    fun a b ->
      match (a, b) with
      | Vint x, Vint y -> Vint (x * y)
      | Vreal x, Vreal y -> Vreal (x *. y)
      | _ -> arith_real ( *. ) a b)
  | Ast.Div -> (
    fun a b ->
      match (a, b) with
      | Vint _, Vint 0 -> runtime "integer division by zero"
      | Vint x, Vint y -> Vint (x / y)
      | _ when numeric a && numeric b ->
        let d = real_of b in
        if d = 0.0 then runtime "real division by zero";
        Vreal (real_of a /. d)
      | _ -> runtime "logical operand in division")
  | Ast.Pow -> (
    fun a b ->
      match (a, b) with
      | Vint x, Vint y -> Vint (int_pow x y)
      | _ when numeric a && numeric b -> Vreal (real_of a ** real_of b)
      | _ -> runtime "logical operand in power")
  | Ast.Lt -> fun a b -> vbool (compare_num a b < 0)
  | Ast.Le -> fun a b -> vbool (compare_num a b <= 0)
  | Ast.Gt -> fun a b -> vbool (compare_num a b > 0)
  | Ast.Ge -> fun a b -> vbool (compare_num a b >= 0)
  | Ast.Eq -> fun a b -> vbool (compare_num a b = 0)
  | Ast.Ne -> fun a b -> vbool (compare_num a b <> 0)
  | Ast.And ->
    fun a b ->
      let y = as_bool ~what:"operand" b in
      vbool (as_bool ~what:"operand" a && y)
  | Ast.Or ->
    fun a b ->
      let y = as_bool ~what:"operand" b in
      vbool (as_bool ~what:"operand" a || y)

let v_neg = function
  | Vint n -> Vint (-n)
  | Vreal f -> Vreal (-.f)
  | Vbool _ -> runtime "negation of a logical"

let intrinsic intr values =
  match (intr, values) with
  | Prog.Iabs, [ Vint n ] -> Vint (abs n)
  | Prog.Iabs, [ Vreal f ] -> Vreal (Float.abs f)
  | Prog.Imin, [ Vint a; Vint b ] -> Vint (min a b)
  | Prog.Imin, [ Vreal a; Vreal b ] -> Vreal (Float.min a b)
  | Prog.Imax, [ Vint a; Vint b ] -> Vint (max a b)
  | Prog.Imax, [ Vreal a; Vreal b ] -> Vreal (Float.max a b)
  | Prog.Imod, [ Vint a; Vint b ] ->
    if b = 0 then runtime "mod with zero divisor";
    Vint (a mod b)
  | (Prog.Iabs | Prog.Imin | Prog.Imax | Prog.Imod), _ ->
    runtime "bad arguments to intrinsic %s" (Prog.intrinsic_name intr)

let value_string = function
  | Vint n -> string_of_int n
  | Vreal f -> Printf.sprintf "%g" f
  | Vbool b -> if b then "T" else "F"

(* ------------------------------------------------------------------ *)
(* Execution helpers the compiled closures call.                       *)

let read_cell ~what (c : cell) =
  match !c with
  | Some v -> v
  | None -> runtime "read of uninitialized variable %s" what

(* Left to right, as every list of operands is evaluated. *)
let rec eval_all fr = function
  | [] -> []
  | c :: rest ->
    let v = c fr in
    v :: eval_all fr rest

let subscripts fr (cidx : (frame -> value) array) =
  let ivals = Array.make (Array.length cidx) 0 in
  for k = 0 to Array.length cidx - 1 do
    ivals.(k) <- as_int ~what:"subscript" (cidx.(k) fr)
  done;
  ivals

(* Subscripts are evaluated before the storage is touched. *)
let element_cell st fr (v : Prog.var) p cidx : cell =
  let ivals = subscripts fr cidx in
  match storage st fr v p with
  | Scalar _ -> runtime "scalar %s subscripted" v.vname
  | Array cells ->
    let off = flat_offset v ivals in
    if off >= Array.length cells then
      runtime "subscript out of bounds for %s" v.vname;
    cells.(off)

let skip (_ : frame) = ()

let rec pick_arm fr arms els =
  match arms with
  | [] -> els fr
  | (c, body) :: rest ->
    if as_bool ~what:"if condition" (c fr) then body fr
    else pick_arm fr rest els

let snapshot_entry st (p : Prog.proc) (c : code) (fr : frame) =
  let formals =
    List.filter_map
      (fun (v : Prog.var) ->
        match v.vkind with
        | _ when Prog.is_array v -> None
        | Prog.Kformal i ->
          Some (i, match fr.(i) with Scalar cell -> !cell | Array _ -> None)
        | _ -> assert false)
      p.pformals
  in
  let globals =
    List.map
      (fun (key, g) ->
        match st.globals.(g) with
        | Scalar cell -> (key, !cell)
        | Array _ -> (key, None))
      c.snap_globals
  in
  st.entries <-
    { es_proc = p.pname; es_formals = formals; es_globals = globals }
    :: st.entries

(* Bind one actual to a formal, by reference. *)
let bind_one st fr (formal : Prog.var) = function
  | Whole (v, p) when Prog.is_array v -> storage st fr v p
  | Whole (v, p) when Prog.is_scalar formal -> (
    match storage st fr v p with
    | Scalar _ as s -> s
    | Array _ -> runtime "array %s used as a scalar" v.vname)
  | Whole _ -> runtime "scalar bound to array formal"
  | Elem (v, p, cidx) when Prog.is_array formal -> (
    (* sequence association: the array formal starts at the element *)
    let ivals = subscripts fr cidx in
    match storage st fr v p with
    | Scalar _ -> runtime "scalar %s subscripted" v.vname
    | Array cells ->
      let off = flat_offset v ivals in
      let view = Array.sub cells off (Array.length cells - off) in
      if Array.length view < array_size formal.vdims then
        runtime "array section too small for formal %s" formal.vname;
      Array view)
  | Elem (v, p, cidx) -> Scalar (element_cell st fr v p cidx)
  | Temp c -> Scalar (ref (Some (coerce formal.vty (c fr))))

let rec bind_args st fr (callee_fr : frame) (actuals : actual array) pos =
  function
  | [] when pos = Array.length actuals -> ()
  | formal :: formals when pos < Array.length actuals ->
    callee_fr.(pos) <- bind_one st fr formal actuals.(pos);
    bind_args st fr callee_fr actuals (pos + 1) formals
  | _ -> invalid_arg "List.iter2"

let rec print_pieces fr = function
  | [] -> []
  | Text s :: rest -> s :: print_pieces fr rest
  | Value c :: rest ->
    let s = value_string (c fr) in
    s :: print_pieces fr rest

(* ------------------------------------------------------------------ *)
(* Compilation.                                                        *)

let const st v =
  let eval (_ : frame) =
    tick st;
    v
  in
  eval

(* A call of a procedure the program lacks fails when it runs, as a
   lookup by name would. *)
let missing st name =
  let call (_ : frame) =
    tick st;
    Prog.no_proc name
  in
  call

(* A procedure's names while it compiles: slots in first-use order after
   the formals and the result. *)
type env = { mutable names : (string * int) list; mutable next : int }

let global_index st (g : Prog.global) =
  let key = (g.gblock, g.gslot) in
  match Hashtbl.find_opt st.gindex key with
  | Some i -> i
  | None ->
    let i = Hashtbl.length st.gindex in
    Hashtbl.add st.gindex key i;
    if i >= Array.length st.globals then begin
      let grown = Array.make (max 8 (2 * i)) unbound in
      Array.blit st.globals 0 grown 0 (Array.length st.globals);
      st.globals <- grown
    end;
    i

let place st env (v : Prog.var) =
  match v.vkind with
  | Prog.Kglobal g -> -1 - global_index st g
  | Prog.Kformal _ | Prog.Klocal | Prog.Kresult -> (
    match List.assoc_opt v.vname env.names with
    | Some slot -> slot
    | None ->
      let slot = env.next in
      env.names <- (v.vname, slot) :: env.names;
      env.next <- slot + 1;
      slot)

let rec cexpr st env (e : Prog.expr) : frame -> value =
  let code = cexpr_desc st env e in
  match st.watch with
  | None -> code
  | Some watch -> (
    match watch e.eid with
    | None -> code
    | Some f ->
      fun fr ->
        let v = code fr in
        f v;
        v)

and cexpr_desc st env (e : Prog.expr) : frame -> value =
  match e.edesc with
  | Cint n -> const st (Vint n)
  | Creal f -> const st (Vreal f)
  | Cbool b -> const st (Vbool b)
  | Cstr _ ->
    fun _ ->
      tick st;
      runtime "string literal outside print"
  | Evar v ->
    let p = place st env v in
    fun fr ->
      tick st;
      (match storage st fr v p with
      | Scalar c -> (
        match !c with
        | Some x -> x
        | None -> runtime "read of uninitialized variable %s" v.vname)
      | Array _ -> runtime "array %s used as a scalar" v.vname)
  | Earr (v, idx) ->
    let p = place st env v in
    let cidx = csubscripts st env idx in
    fun fr ->
      tick st;
      let c = element_cell st fr v p cidx in
      (match !c with
      | Some x -> x
      | None -> runtime "read of uninitialized variable %s(...)" v.vname)
  | Ecall (f, args) -> (
    let actuals = cactuals st env args in
    match Hashtbl.find_opt st.procs f with
    | None -> missing st f
    | Some callee ->
      fun fr ->
        tick st;
        call_function st fr callee actuals)
  | Eintr (intr, args) ->
    let cargs = cexprs st env args in
    fun fr ->
      tick st;
      intrinsic intr (eval_all fr cargs)
  | Eun (Ast.Neg, a) ->
    let ca = cexpr st env a in
    fun fr ->
      tick st;
      v_neg (ca fr)
  | Eun (Ast.Not, a) ->
    let ca = cexpr st env a in
    fun fr ->
      tick st;
      Vbool (not (as_bool ~what:".not." (ca fr)))
  | Ebin (op, a, b) ->
    let f = binop op in
    let ca = cexpr st env a in
    let cb = cexpr st env b in
    fun fr ->
      tick st;
      let va = ca fr in
      let vb = cb fr in
      f va vb

and cexprs st env = function
  | [] -> []
  | e :: rest ->
    let c = cexpr st env e in
    c :: cexprs st env rest

and csubscripts st env idx = Array.of_list (cexprs st env idx)

and cactuals st env args =
  let actual (a : Prog.expr) =
    match a.edesc with
    | Prog.Evar v -> Whole (v, place st env v)
    | Prog.Earr (v, idx) -> Elem (v, place st env v, csubscripts st env idx)
    | _ -> Temp (cexpr st env a)
  in
  Array.of_list (List.map actual args)

(* Enter a procedure (compiling it on its first call): bind, snapshot,
   run.  Returns the callee's frame. *)
and enter st fr (callee : proc_entry) actuals : frame =
  let c =
    match callee.code with
    | Some c -> c
    | None -> compile_proc st callee { names = []; next = 0 }
  in
  let callee_fr = Array.make c.nslots unbound in
  bind_args st fr callee_fr actuals 0 callee.proc.pformals;
  if st.trace_entries then snapshot_entry st callee.proc c callee_fr;
  (try c.body callee_fr with Return_from_proc -> ());
  callee_fr

and call_function st fr callee actuals : value =
  let callee_fr = enter st fr callee actuals in
  let name = callee.proc.pname in
  match (callee.proc.presult, callee.code) with
  | Some _, Some c -> (
    match callee_fr.(c.result_slot) with
    | Scalar cell -> read_cell ~what:(name ^ " (function result)") cell
    | Array _ -> runtime "function %s did not set its result" name)
  | _ -> runtime "%s is not a function" name

and compile_proc st (callee : proc_entry) env : code =
  let p = callee.proc in
  List.iter (fun (v : Prog.var) -> ignore (place st env v)) p.pformals;
  let result_slot =
    match p.presult with Some rv -> place st env rv | None -> -1
  in
  let body = cbody st env p.pbody in
  (* main's [data] locals need slots even when the body never names them *)
  List.iter
    (fun (d : Prog.data_init) -> ignore (place st env d.di_var))
    p.pdata;
  let snap_globals =
    if not st.trace_entries then []
    else
      List.filter_map
        (fun (_, (g : Prog.global)) ->
          if g.gdims <> [] then None
          else Some (Prog.global_key g, global_index st g))
        p.pglobals
  in
  let c = { nslots = env.next; result_slot; body; snap_globals } in
  callee.code <- Some c;
  st.compiled <- st.compiled + 1;
  c

(* A statement sequence.  A [Jump l] raised inside is caught here if
   some statement of this sequence carries label [l] (the first such
   statement resumes); otherwise it keeps propagating outward (jumps out
   of blocks). *)
and cbody st env (stmts : Prog.stmt list) : frame -> unit =
  let n = List.length stmts in
  let code = Array.make n skip in
  let rec fill i labels = function
    | [] -> labels
    | (s : Prog.stmt) :: rest ->
      code.(i) <- cstmt st env s;
      let labels =
        match s.slabel with
        | Some l when not (List.mem_assoc l labels) -> (l, i) :: labels
        | _ -> labels
      in
      fill (i + 1) labels rest
  in
  match (fill 0 [] stmts, code) with
  | [], [||] -> skip
  | [], [| s |] -> s
  | [], _ ->
    fun fr ->
      for i = 0 to n - 1 do
        code.(i) fr
      done
  | labels, _ ->
    let rec from fr i =
      if i < n then
        match code.(i) fr with
        | () -> from fr (i + 1)
        | exception Jump l when List.mem_assoc l labels ->
          from fr (List.assoc l labels)
    in
    fun fr -> from fr 0

and clhs st env : Prog.lhs -> frame -> value -> unit = function
  | Prog.Lvar v ->
    let p = place st env v in
    fun fr x ->
      let nv = Some (coerce v.vty x) in
      scalar_cell v (storage st fr v p) := nv
  | Prog.Larr (v, idx) ->
    let p = place st env v in
    let cidx = csubscripts st env idx in
    fun fr x ->
      let nv = Some (coerce v.vty x) in
      element_cell st fr v p cidx := nv

and cstmt st env (s : Prog.stmt) : frame -> unit =
  match s.sdesc with
  | Sassign (lhs, e) ->
    let ce = cexpr st env e in
    let set = clhs st env lhs in
    fun fr ->
      tick st;
      let x = ce fr in
      set fr x
  | Scall (f, args) -> (
    let actuals = cactuals st env args in
    match Hashtbl.find_opt st.procs f with
    | None -> missing st f
    | Some callee ->
      fun fr ->
        tick st;
        ignore (enter st fr callee actuals))
  | Sif (arms, els) ->
    let carms =
      List.map (fun (c, b) -> (cexpr st env c, cbody st env b)) arms
    in
    let cels = cbody st env els in
    fun fr ->
      tick st;
      pick_arm fr carms cels
  | Sdo (v, lo, hi, step, body) ->
    let p = place st env v in
    let clo = cexpr st env lo in
    let chi = cexpr st env hi in
    let cstep =
      match step with None -> None | Some e -> Some (cexpr st env e)
    in
    let cb = cbody st env body in
    fun fr ->
      tick st;
      let cell = scalar_cell v (storage st fr v p) in
      let lo = as_int ~what:"do lower bound" (clo fr) in
      let hi = as_int ~what:"do upper bound" (chi fr) in
      let step =
        match cstep with
        | None -> 1
        | Some c -> as_int ~what:"do step" (c fr)
      in
      if step = 0 then runtime "do loop with zero step";
      let i = ref lo in
      while if step > 0 then !i <= hi else !i >= hi do
        cell := Some (Vint !i);
        cb fr;
        tick st;
        i := !i + step
      done;
      cell := Some (Vint !i)
  | Sdowhile (c, body) ->
    let cc = cexpr st env c in
    let cb = cbody st env body in
    fun fr ->
      tick st;
      while as_bool ~what:"do while condition" (cc fr) do
        cb fr;
        tick st
      done
  | Sgoto l ->
    fun _ ->
      tick st;
      raise (Jump l)
  | Scontinue -> fun _ -> tick st
  | Sreturn ->
    fun _ ->
      tick st;
      raise Return_from_proc
  | Sstop ->
    fun _ ->
      tick st;
      raise Stop_program
  | Sprint args ->
    let piece (e : Prog.expr) =
      match e.edesc with Cstr str -> Text str | _ -> Value (cexpr st env e)
    in
    let pieces = List.map piece args in
    fun fr ->
      tick st;
      st.outputs <- String.concat " " (print_pieces fr pieces) :: st.outputs
  | Sread ls ->
    let sets = List.map (fun l -> clhs st env l) ls in
    fun fr ->
      tick st;
      List.iter
        (fun set ->
          let next =
            match st.input with
            | [] -> 0
            | x :: rest ->
              st.input <- rest;
              x
          in
          set fr (Vint next))
        sets

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)

(** Default step bound: generous for the suite's programs, small enough
    that a divergent program still stops promptly. *)
let default_fuel = 2_000_000

(** Run a program's main unit.  [fuel] bounds the number of interpreter steps
    (expressions + statements); [input] feeds [read] statements (exhausted
    input reads 0); [trace_entries] controls whether procedure-entry
    snapshots are recorded (they cost time and memory). *)
let run ?(fuel = default_fuel) ?(input = []) ?(trace_entries = true) ?watch
    (prog : Prog.t) : result =
  let procs = Hashtbl.create (List.length prog.procs) in
  List.iter
    (fun (p : Prog.proc) ->
      if not (Hashtbl.mem procs p.pname) then
        Hashtbl.add procs p.pname { proc = p; code = None })
    prog.procs;
  let st =
    {
      procs;
      compiled = 0;
      gindex = Hashtbl.create 16;
      globals = [||];
      fuel;
      outputs = [];
      entries = [];
      input;
      total_steps = 0;
      trace_entries;
      watch;
    }
  in
  let main_entry =
    match Hashtbl.find_opt procs prog.main with
    | Some e -> e
    | None -> Prog.no_proc prog.main
  in
  let main_env = { names = []; next = 0 } in
  let main = compile_proc st main_entry main_env in
  let frame = Array.make main.nslots unbound in
  (* load-time [data] initialization: common globals from any unit, and the
     main program's own locals *)
  let value_of_const = function
    | Prog.Dc_int n -> Vint n
    | Prog.Dc_real f -> Vreal f
    | Prog.Dc_bool b -> Vbool b
  in
  let apply_data (d : Prog.data_init) p =
    let cells =
      match storage st frame d.di_var p with
      | Scalar c -> [| c |]
      | Array cells -> cells
    in
    let pos = ref 0 in
    List.iter
      (fun (repeat, c) ->
        for _ = 1 to repeat do
          if !pos < Array.length cells then begin
            cells.(!pos) := Some (value_of_const c);
            incr pos
          end
        done)
      d.di_values
  in
  List.iter
    (fun (p : Prog.proc) ->
      List.iter
        (fun (d : Prog.data_init) ->
          match d.di_var.vkind with
          | Prog.Kglobal g -> apply_data d (-1 - global_index st g)
          | Prog.Klocal when p.pname = prog.main ->
            apply_data d (List.assoc d.di_var.vname main_env.names)
          | _ -> ())
        p.pdata)
    prog.procs;
  if trace_entries then snapshot_entry st main_entry.proc main frame;
  let outcome =
    match main.body frame with
    | () -> Finished
    | exception Stop_program -> Finished
    | exception Return_from_proc -> Finished
    | exception Out_of_fuel_exn -> Out_of_fuel
    | exception Runtime msg -> Failed msg
    | exception Jump l -> Failed (Fmt.str "jump to label %d entered a block" l)
  in
  Ipcp_telemetry.Telemetry.add "interp.procs_resolved" st.compiled;
  {
    outputs = List.rev st.outputs;
    entries = List.rev st.entries;
    steps = st.total_steps;
    outcome;
  }
