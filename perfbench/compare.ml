(* Compare two results documents (parent first, change second): for each
   workload and end-to-end metric, each side's median and quartiles, the
   pairs the change won, and a verdict:

   - gain: the change wins at least 9/10 of the pairs (ties count for
     neither) and the medians differ by more than the parent's
     interquartile distance;
   - worse: the change's median is worse than the parent's by more than
     the metric's bound;
   - unresolved: a side's spread (interquartile distance over median) is
     wider than the bound, unless every run of the change reads better
     than every run of the parent;
   - within bound: otherwise.

   Pairs are the i-th untraced runs of a workload on each side, in file
   order. *)

module Json = Ipcp_telemetry.Json

let load path =
  Util.lines (Util.read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun l -> Result.to_option (Json.of_string l))
  |> List.filter (fun d -> Json.path [ "provenance"; "trace" ] d = Some (Json.Int 0))

let values docs ~workload ~metric =
  List.filter_map
    (fun d ->
      if Json.path [ "provenance"; "workload" ] d <> Some (Json.Str workload) then None
      else
        match Json.path [ "metrics"; metric; "value" ] d with
        | Some (Json.Float f) -> Some f
        | Some (Json.Int i) -> Some (float_of_int i)
        | _ -> None)
    docs

let run ~spec parent change =
  let a_docs = load parent and b_docs = load change in
  Printf.printf "%-6s %-22s %-33s %-33s %7s  %s\n" "load" "metric" "parent p25/p50/p75"
    "change p25/p50/p75" "won" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (metric, _unit, better, bound) ->
          let a = values a_docs ~workload ~metric and b = values b_docs ~workload ~metric in
          if a <> [] && b <> [] then begin
            let q xs = (Util.quantile xs 0.25, Util.median xs, Util.quantile xs 0.75) in
            let a25, a50, a75 = q a and b25, b50, b75 = q b in
            let lower = better = "lower" in
            let beats x y = if lower then x < y else x > y in
            let k = min (List.length a) (List.length b) in
            let first xs = List.filteri (fun i _ -> i < k) xs in
            let pairs = List.combine (first a) (first b) in
            let won = List.length (List.filter (fun (x, y) -> beats y x) pairs) in
            let spread lo hi med = Util.ratio (hi -. lo) (Float.abs med) in
            let worsening = (if lower then b50 -. a50 else a50 -. b50) /. Float.abs a50 in
            let all_better = List.for_all (fun y -> List.for_all (fun x -> beats y x) a) b in
            let verdict =
              if
                10 * won >= 9 * List.length pairs
                && beats b50 a50
                && Float.abs (b50 -. a50) > a75 -. a25
              then "gain"
              else if
                (spread a25 a75 a50 > bound || spread b25 b75 b50 > bound) && not all_better
              then "unresolved"
              else if worsening > bound then "worse"
              else "within bound"
            in
            Printf.printf "%-6s %-22s %10.4g/%10.4g/%10.4g %10.4g/%10.4g/%10.4g %3d/%-3d  %s\n"
              workload metric a25 a50 a75 b25 b50 b75 won (List.length pairs) verdict
          end)
        spec)
    Util.workloads;
  0
