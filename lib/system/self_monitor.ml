module Obs = Xy_obs.Obs
module Trace = Xy_trace.Trace
module T = Xy_xml.Types

let health_url = "xyleme://self/metrics.xml"
let traces_url = "xyleme://self/traces.xml"

let markers v =
  let rec grow acc threshold =
    if threshold > v || threshold > 1e9 then List.rev acc
    else
      let marker = Printf.sprintf "over_%.0f" threshold in
      grow (marker :: acc) (threshold *. 10.)
  in
  grow [] 1.

(* "12 over_1 over_10": the value itself first, then its markers, all
   plain words the subscription language's [contains] can test. *)
let value_text v =
  let rendered =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%g" v
  in
  String.concat " " (rendered :: markers v)

let float_attr v = Printf.sprintf "%.6g" v

(* Seconds with millisecond resolution: [%g] would print a wall-clock
   stamp as [1.79228e+09]. *)
let time_attr at = Printf.sprintf "%.3f" at

(* A histogram adds to its sample count the sum, max and quantile
   estimates (0 while empty) and one [<bucket>] child per non-empty
   bucket ([le="+inf"] for the overflow bucket). *)
let metric_element tag value =
  let open Obs.Snapshot in
  let text v = T.text (value_text v) in
  match value with
  | Counter n -> T.el tag [ text (float_of_int n) ]
  | Gauge v -> T.el tag [ text v ]
  | Histogram h ->
      let stat f = float_attr (if h.count = 0 then 0. else f h) in
      let bucket i count =
        let le =
          if i < Array.length h.bounds then float_attr h.bounds.(i) else "+inf"
        in
        T.el "bucket" ~attrs:[ ("le", le); ("count", string_of_int count) ] []
      in
      T.el tag
        ~attrs:
          [
            ("sum", float_attr h.sum);
            ("max", stat (fun h -> h.max_value));
            ("p50", stat (fun h -> quantile h 0.5));
            ("p95", stat (fun h -> quantile h 0.95));
            ("p99", stat (fun h -> quantile h 0.99));
          ]
        (text (float_of_int h.count)
        :: List.concat
             (List.mapi
                (fun i count -> if count = 0 then [] else [ bucket i count ])
                (Array.to_list h.counts)))

let health_document ~snapshot =
  let children =
    List.map
      (fun e ->
        metric_element
          (e.Obs.Snapshot.stage ^ "_" ^ e.Obs.Snapshot.name)
          e.Obs.Snapshot.value)
      snapshot.Obs.Snapshot.entries
  in
  T.element "health"
    ~attrs:[ ("at", time_attr snapshot.Obs.Snapshot.at) ]
    children

let traces_document tracer =
  let counts =
    [
      T.el "traces_started"
        [ T.text (value_text (float_of_int (Trace.started tracer))) ];
      T.el "traces_completed"
        [ T.text (value_text (float_of_int (Trace.completed tracer))) ];
    ]
  in
  let stages =
    List.map
      (fun stat ->
        let total_ms = stat.Trace.st_total_wall *. 1e3 in
        T.el
          ("trace_" ^ stat.Trace.st_stage)
          ~attrs:
            [
              ("spans", string_of_int stat.Trace.st_spans);
              ("max_ms", Printf.sprintf "%.3f" (stat.Trace.st_max_wall *. 1e3));
            ]
          [ T.text (value_text (Float.round total_ms)) ])
      (Trace.summary tracer)
  in
  T.element "trace_summary" (counts @ stages)

(* One document per objective: its URL is stable, so a subscription on
   [URL extends "xyleme://self/slo/"] sees every status transition as a
   modification of "its" page — exactly how the paper's subscribers
   watch any other page. *)
let slo_url name = Printf.sprintf "xyleme://self/slo/%s.xml" name

let slo_status (r : Xy_slo.Slo.report) = Xy_slo.Slo.status_word r.Xy_slo.Slo.r_status

let slo_document (r : Xy_slo.Slo.report) =
  let o = r.Xy_slo.Slo.r_objective in
  T.element "slo"
    ~attrs:
      [
        ("name", o.Xy_slo.Slo.o_name);
        ("at", time_attr r.Xy_slo.Slo.r_at);
        ("objective", Printf.sprintf "%g of %s/%s within %gs"
           o.Xy_slo.Slo.o_target o.Xy_slo.Slo.o_stage o.Xy_slo.Slo.o_metric
           o.Xy_slo.Slo.o_threshold);
      ]
    [
      (* the word the alerting subscription tests with [contains] *)
      T.el "status" [ T.text (slo_status r) ];
      T.el "fast_burn" [ T.text (value_text r.Xy_slo.Slo.r_fast_burn) ];
      T.el "slow_burn" [ T.text (value_text r.Xy_slo.Slo.r_slow_burn) ];
      T.el "window_total"
        [ T.text (value_text (float_of_int r.Xy_slo.Slo.r_total)) ];
      T.el "window_good"
        [ T.text (value_text (float_of_int r.Xy_slo.Slo.r_good)) ];
    ]

let slo_changed ~stored r =
  let status doc =
    List.find_map
      (fun child ->
        if child.T.tag = "status" then Some (String.trim (T.text_content child))
        else None)
      (T.children_elements doc)
  in
  Option.bind stored status <> Some (slo_status r)

let content doc = Xy_xml.Printer.element_to_string ~indent:2 doc ^ "\n"
