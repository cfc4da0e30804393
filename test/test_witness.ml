(* The interpreter's observables, pinned byte for byte.  One line per run
   records the outcome (with the runtime error text), the step count, the
   output and entry counts, and digests of the printed lines, of the
   entry snapshots and of the (expression id, value) sequence of every
   evaluation, seen through a [watch] that watches every expression.

   Covered: the 12 suite programs at the default fuel and at fuel
   0/7/1000, their substituted programs, Workload.generate seeds 1-50
   and a few hand-written programs, runtime failures among them.
   goldens/interp_witness.txt was recorded with the tree-walking
   interpreter this one replaced, so this test is the equivalence proof
   between the two.  Regenerate it only
   on a deliberate change of interpreter semantics. *)

open Ipcp_frontend
open Ipcp_core
open Ipcp_interp
open Ipcp_suite

let value_str = function
  | Interp.Vint n -> "i" ^ string_of_int n
  | Interp.Vreal f -> Printf.sprintf "r%h" f
  | Interp.Vbool b -> if b then "bT" else "bF"

let opt_str = function None -> "-" | Some v -> value_str v

let entry_str (es : Interp.entry_snapshot) =
  let formals =
    List.map (fun (i, v) -> Printf.sprintf "%d=%s" i (opt_str v)) es.es_formals
  in
  let globals =
    List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (opt_str v)) es.es_globals
  in
  String.concat " " ((es.es_proc :: formals) @ globals)

let hex_digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* A digest of an unbounded stream: full chunks fold into a running
   digest, so a 2M-step run never holds its whole trace. *)
type stream = { buf : Buffer.t; mutable acc : string; mutable count : int }

let stream () = { buf = Buffer.create 65536; acc = ""; count = 0 }

let flush s =
  s.acc <- Digest.string (s.acc ^ Buffer.contents s.buf);
  Buffer.clear s.buf

let push s eid v =
  s.count <- s.count + 1;
  Buffer.add_string s.buf (string_of_int eid);
  Buffer.add_char s.buf ':';
  Buffer.add_string s.buf (value_str v);
  Buffer.add_char s.buf ';';
  if Buffer.length s.buf >= 65536 then flush s

let outcome_str = function
  | Interp.Finished -> "finished"
  | Interp.Out_of_fuel -> "out-of-fuel"
  | Interp.Failed m -> "failed(" ^ m ^ ")"

let witness_line label ?fuel prog =
  let s = stream () in
  let record = push s in
  let r = Interp.run ?fuel ~watch:(fun eid -> Some (record eid)) prog in
  flush s;
  Printf.sprintf
    "%s %s steps=%d outputs=%d entries=%d evals=%d out=%s ent=%s eval=%s"
    label (outcome_str r.outcome) r.steps (List.length r.outputs)
    (List.length r.entries) s.count (hex_digest r.outputs)
    (hex_digest (List.map entry_str r.entries))
    (Digest.to_hex s.acc)

(* Features the suite and the generator never reach: gotos out of
   nested blocks, sequence association, common aliases, data, reals,
   logicals, mixed coercions, recursion, function results — and
   runtime errors, whose text is part of the outcome. *)
let extra_programs =
  [
    ( "semantics",
      "program t\ninteger a(2, 3), i, j, n, s, m(4)\nreal x\nlogical q\n\
       common /c/ g, w\ninteger g, w(3)\ndata g /5/, m /4*1/\n\
       do j = 1, 3\ndo i = 1, 2\na(i, j) = i * 10 + j\nend do\nend do\n\
       call peek(a(1, 2))\ncall fill(w)\nn = 0\n10 n = n + 1\n\
       do i = 1, 5\nif (i .eq. n) then\nif (n .lt. 3) goto 10\nend if\n\
       end do\nx = n / 2.0 + g\ns = x\nq = .not. (s .gt. 4) .or. x .lt. 0.5\n\
       i = 1\ndo while (i .lt. 50)\ni = i * 3\nend do\n\
       do j = 10, 1, -4\nm(2) = m(2) + j\nend do\n\
       print *, n, x, s, q, i, j, m(2), fact(6), w(3), g\n\
       call bump(n + 0)\ncall bump(n)\nprint *, n, mod(17, 5), abs(-3), \
       min(2.5, x), max(n, 9)\ncall halt(n)\nprint *, 'never'\nend\n\
       subroutine peek(v)\ninteger v(4)\nprint *, v(1), v(2), v(3), v(4)\n\
       end\nsubroutine fill(b)\ninteger b(3), k\ncommon /c/ h, ww\ninteger h, ww(3)\n\
       do k = 1, 3\nb(k) = k + h\nend do\nh = h + 1\nend\n\
       subroutine bump(x)\ninteger x\nx = x + 1\nend\n\
       function fact(n)\ninteger fact, n\nif (n .le. 1) then\nfact = 1\n\
       return\nend if\nfact = n * fact(n - 1)\nend\n\
       subroutine halt(k)\ninteger k\nif (k .gt. 0) stop\nprint *, k\nend\n"
    );
    ( "fail-goto-into-block",
      "program t\ninteger n\nn = 1\ngoto 20\nif (n .gt. 0) then\n\
       20 n = 2\nend if\nprint *, n\nend\n" );
    ( "fail-uninit",
      "program t\ninteger n, m\nn = 3\ncall s(n)\nprint *, n\nm = m + 1\n\
       print *, m\nend\nsubroutine s(k)\ninteger k\nk = k * 2\nend\n" );
    ( "fail-bounds",
      "program t\ninteger a(3), i\ndo i = 1, 4\na(i) = i\nprint *, i\n\
       end do\nend\n" );
    ( "fail-result",
      "program t\ninteger r\nr = f(2)\nprint *, r\nend\n\
       function f(x)\ninteger f, x\nif (x .gt. 5) then\nf = x\n\
       end if\nend\n" );
  ]

let render () =
  let suite =
    List.concat_map
      (fun (e : Registry.entry) ->
        let prog = Registry.program e in
        let fuels =
          List.map
            (fun fuel ->
              witness_line (Printf.sprintf "%s fuel=%d" e.name fuel) ~fuel prog)
            [ 0; 7; 1000 ]
        in
        let t = Driver.analyze Config.default prog in
        let prog', _ = Substitute.apply t in
        (witness_line (e.name ^ " fuel=default") prog :: fuels)
        @ [ witness_line (e.name ^ " substituted") prog' ])
      Registry.entries
  in
  let generated =
    List.init 50 (fun i ->
        let seed = i + 1 in
        witness_line
          (Printf.sprintf "generate seed=%d" seed)
          (Workload.generate_resolved { Workload.default_spec with seed }))
  in
  let extra =
    List.map
      (fun (name, src) -> witness_line name (Sema.parse_and_resolve src))
      extra_programs
  in
  suite @ generated @ extra

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden () =
  let golden_path =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "goldens/interp_witness.txt"
  in
  let golden =
    String.split_on_char '\n' (String.trim (read_file golden_path))
  in
  Alcotest.(check (list string)) "interpreter witness pinned" golden (render ())

let suite = [ ("interpreter observables pinned", `Quick, test_golden) ]
