(* Workload [large]: one caller analyzing whole program files the way
   [ipcp analyze FILE] does.  The inputs are big enough that stages 1-2
   dominate each op, so their growth with program size shows here:
   random call DAGs at N and 2N procedures, a straight call chain, and
   recursive rings that form one SCC (stage 2's recursive path), each
   at R and 2R procedures. *)

open Ipcp_core
module Jobs = Ipcp_serve.Jobs
module Certify = Ipcp_certify.Certify
module Workload = Ipcp_suite.Workload

let dag_n = 400
let chain_n = 2000
let ring_n = 400

(* Interpreter budget of the certification witness: far above what any
   input here needs, so a witness that does not finish is a failure. *)
let cert_fuel = 50_000_000

type shape = Dag | Chain | Ring

type input = {
  label : string;
  shape : shape;
  procs : int;
  path : string;
  source : string;
  expected : string option;  (** the CONSTANTS block, when known analytically *)
}

(* Sparse DAGs (one call slot in ten) keep every generated program's
   execution small enough for the certifier's interpreter witness. *)
let dag ~seed n =
  Workload.generate
    { Workload.default_spec with seed; num_procs = n; p_call = 0.1 }

(* [p_i] calls [p_(i+1)(a)]: every [a] is the constant [c]. *)
let chain n c =
  let b = Buffer.create (n * 48) in
  Printf.bprintf b "program chmain\n  integer k\n  k = %d\n  call p1(k)\n  print *, k\nend\n\n" c;
  for i = 1 to n do
    Printf.bprintf b "subroutine p%d(a)\n  integer a\n" i;
    if i < n then Printf.bprintf b "  call p%d(a)\n" (i + 1);
    Printf.bprintf b "  print *, a\nend\n\n"
  done;
  Buffer.contents b

(* [p_i] calls [p_(i+1)] and [p_n] calls [p_1] while a countdown lasts:
   one recursive SCC in which every [a] is the constant [c] and the
   countdown [n] is not constant. *)
let ring n c =
  let b = Buffer.create (n * 96) in
  Printf.bprintf b
    "program rgmain\n  integer k, m\n  k = %d\n  m = %d\n  call p1(k, m)\n  print *, k\nend\n\n"
    c n;
  for i = 1 to n do
    Printf.bprintf b
      "subroutine p%d(a, n)\n  integer a, n\n  if (n .gt. 0) then\n    call p%d(a, n - 1)\n  end if\n  print *, a\nend\n\n"
      i (if i = n then 1 else i + 1)
  done;
  Buffer.contents b

let constants_block n c =
  String.concat "" (List.init n (fun i -> Printf.sprintf "p%d: a=%d\n" (i + 1) c))

(* The CONSTANTS section of an analyze rendering. *)
let constants_of out =
  let b = Buffer.create 4096 in
  let inside = ref false in
  List.iter
    (fun l ->
      if l = "--- CONSTANTS sets" then inside := true
      else if Util.starts_with ~prefix:"--- " l then inside := false
      else if !inside then (Buffer.add_string b l; Buffer.add_char b '\n'))
    (Util.lines out);
  Buffer.contents b

let inputs ~seed dir =
  let rng = Random.State.make [| seed |] in
  let const () = 1 + Random.State.int rng 99 in
  let mk label shape procs source expected =
    let path = Filename.concat dir (label ^ ".f") in
    Util.write_file path source;
    { label; shape; procs; path; source; expected }
  in
  let c_chain = const () and c_ring = const () and c_ring2 = const () in
  [
    mk "dag-n" Dag (dag_n + 1) (dag ~seed:(Util.sub_seed seed 1) dag_n) None;
    mk "dag-2n" Dag ((2 * dag_n) + 1) (dag ~seed:(Util.sub_seed seed 2) (2 * dag_n)) None;
    mk "chain" Chain (chain_n + 1) (chain chain_n c_chain)
      (Some (constants_block chain_n c_chain));
    mk "ring-r" Ring (ring_n + 1) (ring ring_n c_ring) (Some (constants_block ring_n c_ring));
    mk "ring-2r" Ring ((2 * ring_n) + 1) (ring (2 * ring_n) c_ring2)
      (Some (constants_block (2 * ring_n) c_ring2));
  ]

let op ~jobs path =
  match Jobs.load path with
  | Error o -> o
  | Ok (_src, prog) -> Jobs.analyze ~config:Config.default ~jobs prog

(* The traced replica of [op]: the same public calls, each in a span,
   rendering through the analyze job's format. *)
let replica ~jobs path =
  let config = Config.default in
  let src = Util.read_file path in
  let diags = Ipcp_support.Diagnostics.create () in
  let ast =
    Trace.span "frontend.parse" (fun () ->
        Ipcp_frontend.Parser.parse_program_collect ~file:path diags src)
  in
  let prog =
    Option.get
      (Trace.span "frontend.sema" (fun () -> Ipcp_frontend.Sema.resolve_collect diags ast))
  in
  let a = Suite_w.traced_prepare prog in
  let t = Suite_w.traced_solve a config in
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "--- configuration: %a@." Config.pp config;
  Format.fprintf ppf "--- CONSTANTS sets@.%a" Driver.pp_constants t;
  let _, stats = Trace.span "core.substitute" (fun () -> Substitute.apply ~jobs t) in
  Trace.count "substitute.total" stats.Substitute.total;
  Format.fprintf ppf "--- constants substituted: %d@." stats.Substitute.total;
  List.iter
    (fun (p, n) -> if n > 0 then Format.fprintf ppf "      %-16s %d@." p n)
    stats.Substitute.by_proc;
  Format.pp_print_flush ppf ();
  { Jobs.out = Buffer.contents buf; err = ""; code = 0 }

(* A certification passes only when the interpreter witness ran. *)
let cert_ok r = Certify.ok r && r.Certify.exec_checked

(* One certification per distinct input, outside the timed region. *)
let certified (inp : input) =
  match Jobs.load inp.path with
  | Error _ -> false
  | Ok (_, prog) -> cert_ok (Certify.check ~fuel:cert_fuel (Driver.analyze Config.default prog))

type state = { inputs : input list; jobs : int }

(* Set-up writes the inputs and analyzes the chain once, so the heap has
   grown before timing; at well under a second, a set-up would be
   dominated by the host's scheduling noise. *)
let setup ~seed ~dir _rep =
  let inputs = inputs ~seed dir in
  let jobs = Ipcp_engine.Engine.default_jobs () in
  ignore (op ~jobs (List.find (fun i -> i.label = "chain") inputs).path);
  { inputs; jobs }

let run ~seed ~seconds ~trace =
  Util.with_tmp_dir @@ fun dir ->
  let st, setup_times =
    Util.timed_setup ~reps:5 ~teardown:ignore (setup ~seed ~dir)
  in
  let rng = Random.State.make [| Util.sub_seed seed 3 |] in
  let order =
    List.map (fun i -> (Random.State.bits rng, i)) st.inputs
    |> List.sort compare |> List.map snd
  in
  let c = Util.new_checks () in
  let first_out = Hashtbl.create 8 in
  (* (input, ms, traced, output ok) per op; (traced, ms) per round *)
  let op_log = ref [] and rounds = ref [] in
  let traced_op_input = Hashtbl.create 64 in
  let start = Util.now_ns () in
  let deadline = Int64.add start (Int64.of_float (seconds *. 1e9)) in
  let round = ref 0 in
  (* a traced run alternates untraced and traced rounds, at least one each *)
  while Int64.compare (Util.now_ns ()) deadline < 0 || (trace && !round < 2) do
    let traced = trace && !round mod 2 = 1 in
    let round_ms =
      List.fold_left
        (fun acc inp ->
          let t0 = Util.now_ns () in
          let o =
            if traced then
              Trace.op (fun () ->
                  Hashtbl.replace traced_op_input (Atomic.get Trace.cur_op) inp;
                  replica ~jobs:st.jobs inp.path)
            else op ~jobs:st.jobs inp.path
          in
          let ms = Util.ms_between t0 (Util.now_ns ()) in
          let same =
            match Hashtbl.find_opt first_out inp.label with
            | None ->
              Hashtbl.replace first_out inp.label o.Jobs.out;
              true
            | Some out -> out = o.Jobs.out
          in
          let ok =
            Util.check c (o.Jobs.code = 0 && same)
              (lazy (Printf.sprintf "%s: output differs from its first rendering" inp.label))
          in
          op_log := (inp, ms, traced, ok) :: !op_log;
          acc +. ms)
        0. order
    in
    rounds := (traced, round_ms) :: !rounds;
    incr round
  done;
  (* checks outside the timed region: analytic CONSTANTS, then one
     witnessed certification per distinct input *)
  let input_ok =
    List.map
      (fun inp ->
        let out = Option.value ~default:"" (Hashtbl.find_opt first_out inp.label) in
        let analytic =
          match inp.expected with
          | None -> true
          | Some e ->
            Util.check c (constants_of out = e)
              (lazy (Printf.sprintf "%s: CONSTANTS differ from the analytic sets" inp.label))
        in
        let cert =
          Util.check c (certified inp)
            (lazy (Printf.sprintf "%s: certification failed or was not witnessed" inp.label))
        in
        (inp.label, analytic && cert))
      st.inputs
  in
  let ops = List.rev !op_log in
  let failed =
    List.length
      (List.filter (fun (inp, _, _, ok) -> not (ok && List.assoc inp.label input_ok)) ops)
  in
  let lat = List.filter_map (fun (_, ms, traced, _) -> if traced then None else Some ms) ops in
  let n = List.length lat in
  let round_procs = float_of_int (Util.isum (List.map (fun i -> i.procs) st.inputs)) in
  let rounds_ms traced =
    List.filter_map (fun (tr, ms) -> if tr = traced then Some ms else None) (List.rev !rounds)
  in
  let untraced_rounds = rounds_ms false in
  let rates =
    List.map (fun ms -> float_of_int (List.length st.inputs) /. (ms /. 1e3)) untraced_rounds
  in
  let prates = List.map (fun ms -> round_procs /. (ms /. 1e3)) untraced_rounds in
  let subs =
    Hashtbl.fold (fun _ out acc -> acc + Util.substituted out) first_out 0
  in
  let metrics =
    if not trace then
      Util.
        [
          metric ~n:(List.length setup_times) "setup_s" "s" (median setup_times);
          metric ~n:(List.length rates) "ops_per_s" "1/s" (median rates);
          metric ~n "op_ms_p50" "ms" (median lat);
          metric ~n "op_ms_p90" "ms" (quantile lat 0.9);
          metric ~n:(List.length prates) "procs_per_s" "1/s" (median prates);
          metric "peak_rss_mb" "MB" (peak_rss_mb ());
          metric ~n:(List.length st.inputs) "constants_substituted" "count" (float_of_int subs);
        ]
    else begin
      let tokens =
        Layers.lex_and_modref
          (List.map
             (fun inp -> (inp.path, inp.source, Ipcp_frontend.Sema.parse_and_resolve inp.source))
             st.inputs)
      in
      let s = Trace.summarize () in
      (* stage-1/2 time per procedure, by shape and size *)
      let stage12 =
        List.filter (fun (sp : Trace.span) -> sp.name = "core.stage12") !Trace.spans
        |> List.filter_map (fun (sp : Trace.span) ->
               Option.map (fun inp -> (inp, Trace.ms sp)) (Hashtbl.find_opt traced_op_input sp.op))
      in
      let us_per_proc name shape =
        let xs = List.filter (fun (inp, _) -> inp.shape = shape) stage12 in
        Util.metric ~n:(List.length xs) name "us"
          (Util.ratio
             (1e3 *. Util.fsum (List.map snd xs))
             (float_of_int (Util.isum (List.map (fun (inp, _) -> inp.procs) xs))))
      in
      let med label =
        Util.median (List.filter_map (fun (inp, ms) -> if inp.label = label then Some ms else None) stage12)
      in
      let traced_rounds = rounds_ms true in
      let pairs = min (List.length traced_rounds) (List.length untraced_rounds) in
      let sum_first k l = Util.fsum (List.filteri (fun i _ -> i < k) l) in
      Layers.common s ~n:s.Trace.ops
      @ Layers.lex_and_modref_metrics s ~tokens
      @ Util.
          [
            us_per_proc "core.stage12_us_per_proc.dag" Dag;
            us_per_proc "core.stage12_us_per_proc.chain" Chain;
            us_per_proc "core.stage12_us_per_proc.ring" Ring;
            metric ~base:(Printf.sprintf "%.3f ms at %d procs" (med "dag-n") dag_n)
              "core.stage12_growth" "ratio" (ratio (med "dag-2n") (med "dag-n"));
            metric ~n:pairs
              ~base:(Printf.sprintf "%.3f ms untraced" (sum_first pairs untraced_rounds))
              "trace.overhead_ratio" "ratio"
              (ratio (sum_first pairs traced_rounds) (sum_first pairs untraced_rounds));
          ]
    end
  in
  {
    Util.attempted = List.length ops;
    failed;
    metrics;
    extra =
      [
        ("ops", Ipcp_telemetry.Json.Int n);
        ("rounds", Ipcp_telemetry.Json.Int !round);
        ( "inputs",
          Ipcp_telemetry.Json.Arr
            (List.map
               (fun i ->
                 Ipcp_telemetry.Json.Obj
                   [ ("label", Str i.label); ("procs", Int i.procs) ])
               st.inputs) );
      ];
    failures = c.msgs;
  }
