(* The benchmark driver.

     perfbench --workload suite|large|serve|all --seed N --seconds S
               --trace 0|1 [--out FILE]
     perfbench --compare PARENT.jsonl CHANGE.jsonl
     perfbench --self-test

   A run builds its inputs from the seed, sets up, measures for the given
   seconds, checks every output, prints each metric by name and unit,
   appends a results document (one JSON line with provenance) to FILE
   (default perfbench/_out/results.jsonl) and prints the result object
   as the last line of standard output.  It exits 1 when a check fails.
   With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
   with --trace 1 they are its per-layer ones, from spans the benchmark
   records around its calls into each layer. *)

module Json = Ipcp_telemetry.Json

let workloads = Util.workloads

type spec = {
  end_to_end : (string * string * string * float) list;
      (** name, unit, better, bound *)
  per_layer : (string * string) list;
}

let str_field k j = Option.get (Option.bind (Json.member k j) Json.to_string_opt)

let num_field k j =
  match Json.member k j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> failwith ("BENCHMARK.json: missing number " ^ k)

let load_spec () =
  let doc =
    match Json.of_string (Util.read_file "BENCHMARK.json") with
    | Ok d -> d
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let items k = Option.value ~default:[] (Option.bind (Json.member k doc) Json.to_list_opt) in
  {
    end_to_end =
      List.map
        (fun m -> (str_field "name" m, str_field "unit" m, str_field "better" m, num_field "bound" m))
        (items "end_to_end");
    per_layer = List.map (fun m -> (str_field "name" m, str_field "unit" m)) (items "per_layer");
  }

(* stdout of a command, or None; its stderr is discarded *)
let capture prog args =
  try
    let r, w = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w null in
    Unix.close w;
    Unix.close null;
    let ic = Unix.in_channel_of_descr r in
    let out = In_channel.input_all ic in
    close_in ic;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> Some (String.trim out)
    | _ -> None
  with Unix.Unix_error _ -> None

let provenance ~workload ~seed ~seconds ~trace spec =
  let rev = Option.value ~default:"unknown" (capture "git" [ "rev-parse"; "HEAD" ]) in
  let dirty =
    match capture "git" [ "status"; "--porcelain"; "--untracked-files=no" ] with
    | Some s -> Json.Bool (s <> "")
    | None -> Json.Null
  in
  Json.Obj
    [
      ("git_rev", Json.Str rev);
      ("git_dirty", dirty);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("workload", Json.Str workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Int (if trace then 1 else 0));
      ( "bounds",
        Json.Obj (List.map (fun (n, _, _, b) -> (n, Json.Float b)) spec.end_to_end) );
    ]

let run_workload ~workload ~seed ~seconds ~trace =
  match workload with
  | "suite" -> Suite_w.run ~seed ~seconds ~trace
  | "large" -> Large_w.run ~seed ~seconds ~trace
  | "serve" -> Serve_w.run ~seed ~seconds ~trace
  | w -> failwith ("unknown workload " ^ w)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (m : Util.metric) ->
         if not (Float.is_finite m.m_value) then failwith (m.m_name ^ " is not a finite number");
         (m.m_name, Json.Obj [ ("value", Json.Float m.m_value); ("unit", Json.Str m.m_unit) ]))
       ms)

let result_line ~correct ~attempted ~failed ms =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", metrics_json ms);
       ])

let run_one ~spec ~workload ~seed ~seconds ~trace ~out =
  let r = run_workload ~workload ~seed ~seconds ~trace in
  let find name = List.find_opt (fun (m : Util.metric) -> m.m_name = name) r.metrics in
  let listed =
    if trace then List.map fst spec.per_layer
    else List.map (fun (name, _, _, _) -> name) spec.end_to_end
  in
  List.iter
    (fun (m : Util.metric) ->
      if not (List.mem m.m_name listed) then
        failwith ("BENCHMARK.json does not list the measured metric " ^ m.m_name))
    r.metrics;
  let reported =
    if trace then
      List.map
        (fun (name, unit) ->
          match find name with Some m -> m | None -> Util.metric ~n:0 name unit 0.)
        spec.per_layer
    else
      List.map
        (fun (name, unit, _, _) ->
          match find name with
          | Some m -> m
          | None -> failwith ("workload " ^ workload ^ " does not measure " ^ name ^ " " ^ unit))
        spec.end_to_end
  in
  let correct = r.failed = 0 && r.attempted > 0 in
  List.iter (Printf.printf "check failed: %s\n") (List.rev r.failures);
  List.iter
    (fun (m : Util.metric) ->
      Printf.printf "%-6s %-34s %16.6f %-6s (n=%d%s)\n" workload m.m_name m.m_value m.m_unit m.m_n
        (if m.m_base = "" then "" else "; base " ^ m.m_base))
    reported;
  Printf.printf "%-6s %-34s %16.6f %-6s (%d failed of %d attempted)\n" workload "failed_ratio"
    (Util.ratio (float_of_int r.failed) (float_of_int r.attempted))
    "ratio" r.failed r.attempted;
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "perfbench/1");
        ("provenance", provenance ~workload ~seed ~seconds ~trace spec);
        ("correct", Json.Bool correct);
        ("attempted", Json.Int r.attempted);
        ("failed", Json.Int r.failed);
        ( "failed_ratio",
          Json.Float (Util.ratio (float_of_int r.failed) (float_of_int r.attempted)) );
        ("metrics", metrics_json reported);
        ( "samples",
          Json.Obj (List.map (fun (m : Util.metric) -> (m.m_name, Json.Int m.m_n)) reported) );
        ( "bases",
          Json.Obj
            (List.filter_map
               (fun (m : Util.metric) ->
                 if m.m_base = "" then None else Some (m.m_name, Json.Str m.m_base))
               reported) );
        ("extra", Json.Obj r.extra);
      ]
  in
  Util.mkdir_p (Filename.dirname out);
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 out in
  output_string oc (Json.to_string doc ^ "\n");
  close_out oc;
  print_endline (result_line ~correct ~attempted:r.attempted ~failed:r.failed reported);
  if correct then 0 else 1

(* [all]: each workload in its own process, so none inherits another's
   heap or memo tables; the last line sums their counts. *)
let run_all ~args =
  let self = Sys.executable_name in
  let results =
    List.map
      (fun w ->
        let argv = Array.of_list (self :: "--workload" :: w :: args) in
        let ic = Unix.open_process_args_in self argv in
        let last = ref "" in
        (try
           while true do
             let l = input_line ic in
             print_endline l;
             last := l
           done
         with End_of_file -> ());
        ignore (Unix.close_process_in ic);
        (w, Json.of_string !last))
      workloads
  in
  let get k = function Ok d -> Json.member k d | Error _ -> None in
  let ok = List.for_all (fun (_, d) -> get "correct" d = Some (Json.Bool true)) results in
  let sum k =
    Util.isum (List.map (fun (_, d) -> Option.value ~default:0 (Option.bind (get k d) Json.to_int_opt)) results)
  in
  let metrics =
    List.concat_map
      (fun (w, d) ->
        match get "metrics" d with
        | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (w ^ "." ^ k, v)) kvs
        | _ -> [])
      results
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool ok);
            ("attempted", Json.Int (sum "attempted"));
            ("failed", Json.Int (sum "failed"));
            ("metrics", Json.Obj metrics);
          ]));
  if ok then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref (Filename.concat Util.out_dir "results.jsonl") in
  let compare = ref [] and self_test = ref false in
  let passthrough = ref [] in
  let keep flag v = passthrough := !passthrough @ [ flag; v ] in
  let speclist =
    [
      ("--workload", Arg.Set_string workload, "NAME suite, large, serve or all");
      ("--seed", Arg.Int (fun v -> seed := v; keep "--seed" (string_of_int v)), "N input seed");
      ( "--seconds",
        Arg.Float (fun v -> seconds := v; keep "--seconds" (string_of_float v)),
        "S measured seconds" );
      ("--trace", Arg.Int (fun v -> trace := v; keep "--trace" (string_of_int v)), "0|1 per-layer run");
      ("--out", Arg.String (fun v -> out := v; keep "--out" v), "FILE results document");
      ( "--compare",
        Arg.Tuple [ Arg.String (fun a -> compare := [ a ]); Arg.String (fun b -> compare := !compare @ [ b ]) ],
        "PARENT CHANGE compare two results documents" );
      ("--self-test", Arg.Set self_test, " prove every output check can fail");
    ]
  in
  Arg.parse speclist (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  let code =
    try
      let spec = load_spec () in
      match (!compare, !self_test, !workload) with
      | [ a; b ], _, _ -> Compare.run ~spec:spec.end_to_end a b
      | _, true, _ -> Self_test.run ()
      | _, _, "all" -> run_all ~args:!passthrough
      | _, _, w when List.mem w workloads ->
        run_one ~spec ~workload:w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out
      | _ ->
        prerr_endline "perfbench: give --workload suite|large|serve|all, --compare A B or --self-test";
        2
    with e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      1
  in
  exit code
