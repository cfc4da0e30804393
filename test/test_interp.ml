(* Unit tests for the reference interpreter: FORTRAN-style semantics
   (by-reference argument passing, commons, column-major arrays, integer
   arithmetic), tracing, and failure modes. *)

open Ipcp_frontend
open Ipcp_interp

let check = Alcotest.check
let fail = Alcotest.fail

let run ?input ?fuel src =
  Interp.run ?input ?fuel (Sema.parse_and_resolve src)

let outputs ?input ?fuel src = (run ?input ?fuel src).Interp.outputs

let expect_outputs ?input src expected =
  check (Alcotest.list Alcotest.string) "outputs" expected (outputs ?input src)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let expect_failure src fragment =
  match (run src).Interp.outcome with
  | Interp.Failed m ->
    if not (contains ~sub:fragment m) then
      fail (Fmt.str "expected failure mentioning %S, got %S" fragment m)
  | Finished -> fail "expected a runtime failure, program finished"
  | Out_of_fuel -> fail "expected a runtime failure, ran out of fuel"

let test_arith () =
  expect_outputs "program t\nprint *, 2 + 3 * 4, (2 + 3) * 4, 2 ** 5\nend\n"
    [ "14 20 32" ]

let test_integer_division_truncates () =
  expect_outputs "program t\nprint *, 7 / 2, -7 / 2, 7 / -2\nend\n"
    [ "3 -3 -3" ]

let test_real_arithmetic () =
  expect_outputs "program t\nx = 1.5\nprint *, x * 2.0 + 1.0\nend\n" [ "4" ]

let test_mixed_promotion () =
  expect_outputs "program t\nx = 3 / 2.0\nprint *, x\nend\n" [ "1.5" ]

let test_real_to_int_truncation () =
  expect_outputs "program t\nn = 2.9\nm = -2.9\nprint *, n, m\nend\n" [ "2 -2" ]

let test_by_reference_modification () =
  expect_outputs
    "program t\ninteger n\nn = 1\ncall bump(n)\ncall bump(n)\nprint *, \
     n\nend\nsubroutine bump(x)\ninteger x\nx = x + 1\nend\n"
    [ "3" ]

let test_expression_actual_copies () =
  (* modifying a temp bound to an expression actual must not leak back *)
  expect_outputs
    "program t\ninteger n\nn = 1\ncall bump(n + 0)\nprint *, n\nend\n\
     subroutine bump(x)\ninteger x\nx = x + 1\nend\n"
    [ "1" ]

let test_common_shared_storage () =
  expect_outputs
    "program t\ncommon /c/ g\ninteger g\ng = 1\ncall s\nprint *, g\nend\n\
     subroutine s\ncommon /c/ h\ninteger h\nh = h + 10\nend\n"
    [ "11" ]

let test_array_element_aliasing () =
  expect_outputs
    "program t\ninteger a(3)\na(1) = 0\na(2) = 0\na(3) = 0\ncall set(a(2))\n\
     print *, a(1), a(2), a(3)\nend\n\
     subroutine set(x)\ninteger x\nx = 9\nend\n"
    [ "0 9 0" ]

let test_whole_array_passing () =
  expect_outputs
    "program t\ninteger a(3), i\ndo i = 1, 3\na(i) = 0\nend do\ncall \
     fill(a, 3)\nprint *, a(1), a(2), a(3)\nend\n\
     subroutine fill(b, n)\ninteger b(3), n, i\ndo i = 1, n\nb(i) = i * \
     10\nend do\nend\n"
    [ "10 20 30" ]

let test_column_major_layout () =
  (* a(i,j): first subscript varies fastest; sequence association exposes
     the layout *)
  expect_outputs
    "program t\ninteger a(2, 2), i, j\ndo j = 1, 2\ndo i = 1, 2\na(i, j) = i \
     * 10 + j\nend do\nend do\ncall peek(a(1, 1))\nend\n\
     subroutine peek(v)\ninteger v(4)\nprint *, v(1), v(2), v(3), v(4)\nend\n"
    [ "11 21 12 22" ]

let test_function_call_and_result () =
  expect_outputs
    "program t\nprint *, sq(5) + sq(2)\nend\nfunction sq(x)\ninteger sq, \
     x\nsq = x * x\nend\n"
    [ "29" ]

let test_recursion () =
  expect_outputs
    "program t\nprint *, fact(5)\nend\nfunction fact(n)\ninteger fact, n\nif \
     (n .le. 1) then\nfact = 1\nelse\nfact = n * fact(n - 1)\nend if\nend\n"
    [ "120" ]

let test_do_loop_semantics () =
  (* bounds evaluated once; variable left at first failing value *)
  expect_outputs
    "program t\ninteger i, n\nn = 3\ndo i = 1, n\nn = 10\nend do\nprint *, i, \
     n\nend\n"
    [ "4 10" ]

let test_do_loop_step_negative () =
  expect_outputs
    "program t\ninteger i, s\ns = 0\ndo i = 10, 1, -3\ns = s + i\nend \
     do\nprint *, s, i\nend\n"
    [ "22 -2" ]

let test_do_loop_zero_trip () =
  expect_outputs
    "program t\ninteger i, s\ns = 0\ndo i = 5, 1\ns = s + 1\nend do\nprint *, \
     s\nend\n"
    [ "0" ]

let test_do_while () =
  expect_outputs
    "program t\ninteger i\ni = 1\ndo while (i .lt. 100)\ni = i * 3\nend \
     do\nprint *, i\nend\n"
    [ "243" ]

let test_goto_loop () =
  expect_outputs
    "program t\ninteger n\nn = 0\n10 n = n + 1\nif (n .lt. 4) goto 10\nprint \
     *, n\nend\n"
    [ "4" ]

let test_goto_out_of_loop () =
  expect_outputs
    "program t\ninteger i\ndo i = 1, 100\nif (i .eq. 3) goto 99\nend do\n99 \
     print *, i\nend\n"
    [ "3" ]

let test_stop_terminates () =
  expect_outputs "program t\nprint *, 1\nstop\nprint *, 2\nend\n" [ "1" ]

let test_return_from_subroutine () =
  expect_outputs
    "program t\ncall s(1)\nend\nsubroutine s(x)\ninteger x\nif (x .eq. 1) \
     then\nprint *, 'early'\nreturn\nend if\nprint *, 'late'\nend\n"
    [ "early" ]

let test_read_consumes_input () =
  expect_outputs ~input:[ 42; 7 ]
    "program t\ninteger a, b\nread *, a, b\nprint *, a + b\nend\n" [ "49" ]

let test_read_exhausted_gives_zero () =
  expect_outputs ~input:[]
    "program t\ninteger a\nread *, a\nprint *, a\nend\n" [ "0" ]

let test_logical_values () =
  expect_outputs
    "program t\nlogical p, q\np = .true.\nq = 1 .gt. 2\nprint *, p, q, p \
     .and. .not. q\nend\n"
    [ "T F T" ]

let test_uninitialized_read_fails () =
  expect_failure "program t\ninteger n\nprint *, n\nend\n" "uninitialized"

let test_division_by_zero_fails () =
  expect_failure "program t\ninteger n\nn = 0\nprint *, 1 / n\nend\n"
    "division by zero"

let test_bounds_check_fails () =
  expect_failure
    "program t\ninteger a(3), i\ni = 5\na(i) = 1\nend\n" "out of bounds"

let test_out_of_fuel () =
  let r = run ~fuel:1000 "program t\nn = 0\n10 n = n + 1\ngoto 10\nend\n" in
  match r.Interp.outcome with
  | Interp.Out_of_fuel -> ()
  | _ -> fail "expected fuel exhaustion"

let test_entry_snapshots () =
  let r =
    run
      "program t\ncommon /c/ g\ninteger g\ng = 5\ncall s(1)\ncall \
       s(2)\nend\nsubroutine s(x)\ninteger x\ncommon /c/ h\ninteger h\nprint \
       *, x + h\nend\n"
  in
  let entries =
    List.filter (fun (e : Interp.entry_snapshot) -> e.es_proc = "s") r.entries
  in
  check Alcotest.int "two entries" 2 (List.length entries);
  match entries with
  | [ e1; e2 ] ->
    check Alcotest.bool "first formal 1" true
      (List.assoc 0 e1.es_formals = Some (Interp.Vint 1));
    check Alcotest.bool "second formal 2" true
      (List.assoc 0 e2.es_formals = Some (Interp.Vint 2));
    check Alcotest.bool "global seen" true
      (List.assoc "c:0" e1.es_globals = Some (Interp.Vint 5))
  | _ -> fail "unexpected entries"

let test_int_pow_negative_exponent () =
  expect_outputs
    "program t\ninteger k\nk = -1\nprint *, 2 ** k, 1 ** k, (-1) ** k\nend\n"
    [ "0 1 -1" ]

(* ---- the watch hook ---- *)

let find_expr prog pred =
  let found = ref None in
  List.iter
    (fun (p : Prog.proc) ->
      Prog.iter_exprs
        (fun e -> if !found = None && pred e then found := Some e.Prog.eid)
        p.pbody)
    prog.Prog.procs;
  match !found with Some eid -> eid | None -> fail "expression not found"

let test_watch_sees_watched_only () =
  let prog =
    Sema.parse_and_resolve
      "program t\ninteger i, s\ns = 0\ndo i = 1, 4\ns = s + i * 2\nend do\n\
       call acc(s)\nprint *, s\nend\nsubroutine acc(x)\ninteger x\n\
       x = x * 3\nend\n"
  in
  let target =
    find_expr prog (fun e ->
        match e.edesc with Prog.Ebin (Ast.Mul, _, _) -> true | _ -> false)
  in
  (* every evaluation, through a watch on every expression *)
  let all = ref [] in
  let r_all =
    Interp.run ~watch:(fun eid -> Some (fun v -> all := (eid, v) :: !all)) prog
  in
  let asked = Hashtbl.create 16 in
  let seen = ref [] in
  let r =
    Interp.run
      ~watch:(fun eid ->
        Hashtbl.replace asked eid
          (1 + Option.value ~default:0 (Hashtbl.find_opt asked eid));
        if eid = target then Some (fun v -> seen := (eid, v) :: !seen)
        else None)
      prog
  in
  check Alcotest.int "watched run takes the same steps" r_all.Interp.steps
    r.Interp.steps;
  check (Alcotest.list Alcotest.string) "same outputs" r_all.Interp.outputs
    r.Interp.outputs;
  Hashtbl.iter
    (fun eid n -> check Alcotest.int (Fmt.str "eid %d asked once" eid) 1 n)
    asked;
  check Alcotest.bool "the watched expression was asked" true
    (Hashtbl.mem asked target);
  let expected = List.rev (List.filter (fun (eid, _) -> eid = target) !all) in
  check Alcotest.int "four evaluations" 4 (List.length expected);
  check Alcotest.bool "every evaluation of the watched expression, in order"
    true
    (List.equal
       (fun (a, v) (b, w) -> a = b && Interp.equal_value v w)
       expected (List.rev !seen));
  check Alcotest.bool "values 2, 4, 6, 8" true
    (List.map snd (List.rev !seen)
    = [ Interp.Vint 2; Interp.Vint 4; Interp.Vint 6; Interp.Vint 8 ])

(* Names resolve once per run: a 400-procedure recursive ring entered
   2001 times compiles each procedure once. *)
let test_procs_resolved_once () =
  let n = 400 and countdown = 2000 in
  let b = Buffer.create (n * 96) in
  Printf.bprintf b
    "program rgmain\n  integer k, m\n  k = 7\n  m = %d\n  call p1(k, m)\nend\n"
    countdown;
  for i = 1 to n do
    Printf.bprintf b
      "subroutine p%d(a, n)\n  integer a, n\n  if (n .gt. 0) then\n    call \
       p%d(a, n - 1)\n  end if\nend\n"
      i
      (if i = n then 1 else i + 1)
  done;
  let prog = Sema.parse_and_resolve (Buffer.contents b) in
  let module Telemetry = Ipcp_telemetry.Telemetry in
  let t = Telemetry.create () in
  let r = Telemetry.with_reporter t (fun () -> Interp.run prog) in
  check Alcotest.bool "finished" true (r.Interp.outcome = Interp.Finished);
  let distinct =
    List.sort_uniq compare
      (List.map (fun (e : Interp.entry_snapshot) -> e.es_proc) r.Interp.entries)
  in
  check Alcotest.int "calls" (countdown + 1) (List.length r.Interp.entries - 1);
  check Alcotest.int "distinct procedures entered" (n + 1)
    (List.length distinct);
  check (Alcotest.option Alcotest.int) "interp.procs_resolved" (Some (n + 1))
    (Telemetry.counter t "interp.procs_resolved")

let suite =
  [
    ( "watch sees watched expressions only",
      `Quick,
      test_watch_sees_watched_only );
    ("procedures resolved once per run", `Quick, test_procs_resolved_once);
    ("arith precedence", `Quick, test_arith);
    ("integer division truncates", `Quick, test_integer_division_truncates);
    ("real arithmetic", `Quick, test_real_arithmetic);
    ("mixed promotion", `Quick, test_mixed_promotion);
    ("real to int truncation", `Quick, test_real_to_int_truncation);
    ("by-reference modification", `Quick, test_by_reference_modification);
    ("expression actuals copy", `Quick, test_expression_actual_copies);
    ("common shared storage", `Quick, test_common_shared_storage);
    ("array element aliasing", `Quick, test_array_element_aliasing);
    ("whole array passing", `Quick, test_whole_array_passing);
    ("column-major layout", `Quick, test_column_major_layout);
    ("function result", `Quick, test_function_call_and_result);
    ("recursion", `Quick, test_recursion);
    ("do loop semantics", `Quick, test_do_loop_semantics);
    ("do loop negative step", `Quick, test_do_loop_step_negative);
    ("do loop zero trip", `Quick, test_do_loop_zero_trip);
    ("do while", `Quick, test_do_while);
    ("goto loop", `Quick, test_goto_loop);
    ("goto out of loop", `Quick, test_goto_out_of_loop);
    ("stop terminates", `Quick, test_stop_terminates);
    ("early return", `Quick, test_return_from_subroutine);
    ("read consumes input", `Quick, test_read_consumes_input);
    ("read exhausted", `Quick, test_read_exhausted_gives_zero);
    ("logical values", `Quick, test_logical_values);
    ("uninitialized read fails", `Quick, test_uninitialized_read_fails);
    ("division by zero fails", `Quick, test_division_by_zero_fails);
    ("bounds check fails", `Quick, test_bounds_check_fails);
    ("fuel exhaustion", `Quick, test_out_of_fuel);
    ("entry snapshots", `Quick, test_entry_snapshots);
    ("integer power negative exponent", `Quick, test_int_pow_negative_exponent);
  ]
