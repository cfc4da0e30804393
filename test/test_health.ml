(* Health documents: the key sets of every [ipcp.health/1] snapshot the
   serving tier writes, pinned byte for byte.  goldens/health_keys.txt
   lists the sorted gauge and counter names of the settled --health-out
   document of three runs: the in-process stdio server without a cache,
   the same with a cache directory, and [ipcp route --shards 1] driven
   as a subprocess.  Every declared reading appears at 0 until bumped,
   so the sets do not depend on the request stream; perfbench reads
   some of these names ([serve.cache_*], [serve.delta_*],
   [serve.prepare_memo_hits], [certify.passed]), so a renamed or
   dropped key must fail here first.  Also here: the counter table and
   the assembler those documents come from, and the router's stdout
   ledger. *)

module Json = Ipcp_telemetry.Json
module Server = Ipcp_serve.Server
module Health = Ipcp_serve.Health

let check = Alcotest.check

let tmp_dir label =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ipcp-test-health-%s.%d" label (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let bin () =
  match Sys.getenv_opt "IPCP_BIN" with
  | Some p when Sys.file_exists p -> p
  | _ -> Alcotest.fail "IPCP_BIN not set; run via dune"

let requests =
  [
    {|{"id":"p","op":"ping"}|};
    {|{"id":"a","op":"analyze","suite":"adm"}|};
    {|{"id":"h","op":"health"}|};
  ]

(* The settled snapshot of one in-process stdio server run. *)
let serve_snapshot ~label ?cache_dir () =
  let dir = tmp_dir label in
  let in_path = Filename.concat dir "in.jsonl" in
  let health = Filename.concat dir "health.json" in
  write_file in_path (String.concat "\n" requests ^ "\n");
  let input = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let oc = open_out_bin (Filename.concat dir "out.jsonl") in
  let config =
    {
      Server.default_config with
      cache_dir = Option.map (Filename.concat dir) cache_dir;
      health_out = Some health;
    }
  in
  let code = Server.run ~config ~input ~output:oc () in
  Unix.close input;
  close_out oc;
  check Alcotest.int (label ^ ": clean exit") 0 code;
  read_file health

(* The settled snapshot of [ipcp route --shards 1], run the way the CLI
   tests run the binary. *)
let route_snapshot () =
  let dir = tmp_dir "route" in
  let in_path = Filename.concat dir "in.jsonl" in
  let health = Filename.concat dir "health.json" in
  write_file in_path (String.concat "\n" requests ^ "\n");
  let code =
    Sys.command
      (Printf.sprintf "%s route --shards 1 --health-out %s < %s > %s 2>&1"
         (Filename.quote (bin ())) (Filename.quote health) (Filename.quote in_path)
         (Filename.quote (Filename.concat dir "out.jsonl")))
  in
  check Alcotest.int "route: clean exit" 0 code;
  read_file health

let key_lines label text =
  match Json.of_string (String.trim text) with
  | Error e -> Alcotest.fail (label ^ ": snapshot does not parse: " ^ e)
  | Ok doc ->
    let names section =
      match Json.member section doc with
      | Some (Json.Obj fields) -> List.sort compare (List.map fst fields)
      | _ -> Alcotest.fail (Printf.sprintf "%s: no %s section" label section)
    in
    (("== " ^ label) :: List.map (( ^ ) "gauge ") (names "gauges"))
    @ List.map (( ^ ) "counter ") (names "counters")

let test_health_keys_golden () =
  let rendered =
    key_lines "serve" (serve_snapshot ~label:"plain" ())
    @ key_lines "serve --cache" (serve_snapshot ~label:"cached" ~cache_dir:"cache" ())
    @ key_lines "route --shards 1" (route_snapshot ())
  in
  let golden_path =
    Filename.concat (Filename.dirname Sys.executable_name)
      "goldens/health_keys.txt"
  in
  check
    (Alcotest.list Alcotest.string)
    "health key sets pinned"
    (String.split_on_char '\n' (String.trim (read_file golden_path)))
    rendered

(* ---- the counter table and the assembler ---- *)

let section doc name =
  match Json.member name doc with
  | Some (Json.Obj fields) ->
    List.map
      (fun (k, v) ->
        match v with
        | Json.Int i -> (k, i)
        | _ -> Alcotest.fail ("non-integer reading " ^ k))
      fields
  | _ -> Alcotest.fail ("no " ^ name ^ " section")

let readings = Alcotest.(list (pair string int))

let test_declared_readings_start_at_zero () =
  let s = Health.schema () in
  let c = Health.counter s "t.count" and g = Health.gauge s "t.level" in
  let t = Health.table [ s ] in
  let doc = Health.snapshot ~gauges:[ ("t.live", 5) ] t in
  check readings "declared gauge at 0 beside the live one"
    [ ("t.level", 0); ("t.live", 5) ]
    (section doc "gauges");
  check readings "declared counter at 0" [ ("t.count", 0) ]
    (section doc "counters");
  Health.bump t c;
  Health.add t c 4;
  Health.bump t g;
  let doc = Health.snapshot ~gauges:[] t in
  check readings "bumps add up" [ ("t.count", 5) ] (section doc "counters");
  check readings "a gauge bumps too" [ ("t.level", 1) ] (section doc "gauges")

let test_undeclared_reading_refused () =
  let s = Health.schema () in
  let _ = Health.counter s "t.known" in
  let t = Health.table [ s ] in
  let raises f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check Alcotest.bool "bumping an undeclared name raises" true
    (raises (fun () -> Health.bump t "t.unknown"));
  check Alcotest.bool "adding to an undeclared name raises" true
    (raises (fun () -> Health.add t "t.unknown" 3));
  check Alcotest.bool "declaring a name twice raises" true
    (raises (fun () -> ignore (Health.gauge s "t.known")));
  (* a reading declared after the table was built is not in it *)
  let late = Health.counter s "t.late" in
  check Alcotest.bool "a late declaration is undeclared for the table" true
    (raises (fun () -> Health.bump t late));
  check readings "no key was added" [ ("t.known", 0) ]
    (section (Health.snapshot ~gauges:[] t) "counters")

(* Worker domains bump one table concurrently: no bump is lost. *)
let test_concurrent_bumps () =
  let s = Health.schema () in
  let c = Health.counter s "t.hits" in
  let t = Health.table [ s ] in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Health.bump t c
            done))
  in
  List.iter Domain.join domains;
  check readings "every bump counted" [ ("t.hits", 40_000) ]
    (section (Health.snapshot ~gauges:[] t) "counters")

(* The router's merge: shard sections summed by name, own readings
   beside them, and [out] holds exactly the returned document. *)
let test_snapshot_sums_shards () =
  let shard q hits =
    Json.Obj
      [
        ("schema", Json.Str "ipcp.health/1");
        ("gauges", Json.Obj [ ("s.queue", Json.Int q) ]);
        ("counters", Json.Obj [ ("s.hits", Json.Int hits) ]);
      ]
  in
  let s = Health.schema () in
  let c = Health.counter s "r.requests" in
  let t = Health.table [ s ] in
  Health.add t c 7;
  let out = Filename.concat (tmp_dir "sum") "merged.json" in
  let doc =
    Health.snapshot ~shards:[ shard 1 10; shard 2 5 ] ~out
      ~gauges:[ ("r.shards", 2) ]
      ~counters:[ ("r.extra", 1) ]
      t
  in
  check readings "gauges summed"
    [ ("r.shards", 2); ("s.queue", 3) ]
    (section doc "gauges");
  check readings "counters summed"
    [ ("r.extra", 1); ("r.requests", 7); ("s.hits", 15) ]
    (section doc "counters");
  check Alcotest.string "out holds the document" (Json.to_string doc ^ "\n")
    (read_file out)

(* ---- the router's stdout ledger ---- *)

let route ?(stdout_fd : Unix.file_descr option) label lines =
  let dir = tmp_dir label in
  let in_path = Filename.concat dir "in.jsonl" in
  write_file in_path (String.concat "\n" lines ^ "\n");
  let out_path = Filename.concat dir "out.jsonl" in
  let input = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let out =
    match stdout_fd with
    | Some fd -> fd
    | None -> Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600
  in
  let err = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process (bin ())
      [| bin (); "route"; "--shards"; "1" |]
      input out err
  in
  List.iter Unix.close [ input; out; err ];
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _ -> -1
  in
  (code, if stdout_fd = None then read_file out_path else "")

(* Every admitted line — invalid, health, ping, analyze — settles its
   debt with exactly one frame, blank lines owe nothing, and the router
   exits once it owes nothing. *)
let test_route_owes_nothing () =
  let code, out =
    route "ledger" (requests @ [ ""; "not a request"; {|{"id":"p2","op":"ping"}|} ])
  in
  check Alcotest.int "clean exit" 0 code;
  let ids =
    List.filter_map
      (fun l ->
        if String.trim l = "" then None
        else
          match Ipcp_serve.Request.response_of_line l with
          | Ok r -> Some r.Ipcp_serve.Request.rs_id
          | Error e -> Alcotest.fail e)
      (String.split_on_char '\n' out)
  in
  check (Alcotest.list Alcotest.string) "one frame per admitted line"
    [ ""; "a"; "h"; "p"; "p2" ] (List.sort compare ids)

(* A dead stdout latches the ledger: the router still drains and exits
   3, the code a dead stdio server exits with. *)
let test_route_dead_stdout_exits_3 () =
  let r, w = Unix.pipe () in
  Unix.close r;
  let code, _ = route ~stdout_fd:w "dead" requests in
  check Alcotest.int "exit 3" 3 code

let suite =
  [
    ("health key sets golden", `Quick, test_health_keys_golden);
    ("declared readings start at zero", `Quick,
     test_declared_readings_start_at_zero);
    ("undeclared reading refused", `Quick, test_undeclared_reading_refused);
    ("concurrent bumps", `Quick, test_concurrent_bumps);
    ("snapshot sums shard documents", `Quick, test_snapshot_sums_shards);
    ("route owes nothing at exit", `Quick, test_route_owes_nothing);
    ("route dead stdout exits 3", `Quick, test_route_dead_stdout_exits_3);
  ]
