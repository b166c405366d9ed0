(* Bechamel micro-benchmarks for the hot kernels, one Test.make per
   experiment family.  The table-style experiments in the other
   modules reproduce the paper's figures; these give rigorous
   OLS-estimated per-run costs for the core operations. *)

open Bechamel
module Workload = Xy_core.Workload
module Matcher = Xy_core.Matcher
module Atomic = Xy_events.Atomic
module Registry = Xy_events.Registry
module Url_alerter = Xy_alerters.Url_alerter
module Meta = Xy_warehouse.Meta
module Prng = Xy_util.Prng

(* Every algorithm is timed through its bare [match_set]: the paper's
   baselines are matchers, not production MQP configurations. *)
let mqp_kernel (module M : Matcher.S) ~card_c =
  let workload = { Workload.card_a = 100_000; card_c; b = 3; s = 30 } in
  let m = M.create () in
  Array.iteri
    (fun id set -> M.add m ~id set)
    (Workload.complex_events workload ~seed:11);
  (* a single representative document keeps the per-run cost constant,
     which the OLS fit requires *)
  let docs = Workload.document_sets workload ~seed:13 ~count:1 in
  let events = docs.(0) in
  fun () -> ignore (M.match_set m events)

let url_kernel impl ~patterns =
  let prng = Prng.create ~seed:3 in
  let registry = Registry.create () in
  let alerter = Url_alerter.create ~extends_impl:impl registry in
  let urls =
    Array.init 256 (fun _ ->
        Printf.sprintf "http://host%d.example.org/%s/%s" (Prng.int prng 100)
          (Prng.word prng) (Prng.word prng))
  in
  for i = 0 to patterns - 1 do
    let url = urls.(i land 255) in
    let cut = 10 + Prng.int prng (String.length url - 10) in
    ignore (Registry.register registry (Atomic.Url_extends (String.sub url 0 cut)))
  done;
  let meta url =
    {
      Meta.url;
      docid = 0;
      kind = Meta.Xml_doc;
      domain = None;
      dtd = None;
      dtdid = None;
      signature = "";
      last_accessed = 0.;
      last_updated = 0.;
      version = 1;
    }
  in
  let url = urls.(0) in
  fun () ->
    ignore (Url_alerter.detect alerter ~meta:(meta url) ~status:Atomic.Unchanged)

let xml_parse_kernel () =
  let content =
    Xy_xml.Printer.element_to_string
      (Xy_xml.Types.element "catalog"
         (List.init 50 (fun i ->
              Xy_xml.Types.el "product"
                [
                  Xy_xml.Types.el "name" [ Xy_xml.Types.text (Printf.sprintf "item%d" i) ];
                  Xy_xml.Types.el "desc" [ Xy_xml.Types.text "a compact digital camera" ];
                ])))
  in
  fun () -> ignore (Xy_xml.Parser.parse_element content)

let tests =
  Test.make_grouped ~name:"xyleme"
    [
      Test.make ~name:"mqp/aes/C=100k"
        (Staged.stage (mqp_kernel (module Xy_core.Aes) ~card_c:100_000));
      Test.make ~name:"mqp/naive/C=100k"
        (Staged.stage (mqp_kernel (module Xy_core.Naive) ~card_c:100_000));
      Test.make ~name:"mqp/counting/C=100k"
        (Staged.stage (mqp_kernel (module Xy_core.Counting) ~card_c:100_000));
      Test.make ~name:"url/hash/100k" (Staged.stage (url_kernel Url_alerter.Hash_prefixes ~patterns:100_000));
      Test.make ~name:"url/trie/100k" (Staged.stage (url_kernel Url_alerter.Trie ~patterns:100_000));
      Test.make ~name:"xml/parse-50-products" (Staged.stage (xml_parse_kernel ()));
    ]

let run () =
  Harness.section "bechamel — OLS-estimated kernel costs";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some (e :: _) -> Printf.sprintf "%.1f" (e /. 1000.)
        | Some [] | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"
      in
      rows := [ name; estimate; r2 ] :: !rows)
    results;
  Harness.print_table ~title:"per-run cost (OLS on monotonic clock)"
    ~header:[ "kernel"; "us/run"; "r^2" ]
    (List.sort compare !rows)
