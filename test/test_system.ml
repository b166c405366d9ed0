(* End-to-end tests for xy_system: the paper's example subscriptions
   running against a controlled synthetic web, producing the report
   shapes §2.2 shows. *)

module Xyleme = Xy_system.Xyleme
module Web = Xy_crawler.Synthetic_web
module Sink = Xy_reporter.Sink
module Loader = Xy_warehouse.Loader
module Clock = Xy_util.Clock
module T = Xy_xml.Types
module Fault = Xy_fault.Fault

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let make ?web () =
  let sink, deliveries = Sink.memory () in
  let t = Xyleme.create ~seed:42 ~sink ?web () in
  (t, deliveries)

let subscribe_exn t ~owner ~text =
  match Xyleme.subscribe t ~owner ~text with
  | Ok name -> name
  | Error e -> Alcotest.fail (Xy_submgr.Manager.error_to_string e)

(* ------------------------------------------------------------------ *)

let test_ingest_updated_page_report () =
  let t, deliveries = make () in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription MyXyleme
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://inria.fr/Xy/" and modified self
report when immediate|});
  (* First fetch: status new — the monitoring query wants modified. *)
  let o1 =
    Xyleme.ingest t ~url:"http://inria.fr/Xy/index.html" ~content:"<page>v1</page>"
      ~kind:Loader.Xml
  in
  checkb "first fetch raises url event but no match" true (o1.Xyleme.matched = []);
  checki "no report yet" 0 (List.length !deliveries);
  (* Second fetch with a change: modified self fires. *)
  let o2 =
    Xyleme.ingest t ~url:"http://inria.fr/Xy/index.html" ~content:"<page>v2</page>"
      ~kind:Loader.Xml
  in
  checkb "matched" true (o2.Xyleme.matched <> []);
  match !deliveries with
  | [ d ] -> (
      checks "report" "Report" d.Sink.report.T.tag;
      match T.children_elements d.Sink.report with
      | [ page ] ->
          checks "UpdatedPage" "UpdatedPage" page.T.tag;
          Alcotest.(check (option string)) "url"
            (Some "http://inria.fr/Xy/index.html")
            (T.attr page "url")
      | _ -> Alcotest.fail "body")
  | _ -> Alcotest.fail "expected one delivery"

let test_new_member_element_report () =
  let t, deliveries = make () in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription Members
monitoring
select X
from self//Member X
where URL = "http://inria.fr/Xy/members.xml" and new X
report when immediate|});
  let url = "http://inria.fr/Xy/members.xml" in
  ignore
    (Xyleme.ingest t ~url
       ~content:"<team><Member><name>jouglet</name></Member></team>"
       ~kind:Loader.Xml);
  checki "initial load: no new-element event" 0 (List.length !deliveries);
  ignore
    (Xyleme.ingest t ~url
       ~content:
         "<team><Member><name>jouglet</name></Member><Member><name>nguyen</name></Member></team>"
       ~kind:Loader.Xml);
  match !deliveries with
  | [ d ] -> (
      match T.children_elements d.Sink.report with
      | [ member ] ->
          checks "member" "Member" member.T.tag;
          checkb "the new one" true
            (Xy_query.Eval.word_contains ~word:"nguyen" (T.text_content member))
      | _ -> Alcotest.fail "expected exactly the new member")
  | _ -> Alcotest.fail "expected one delivery"

let test_catalog_watch_with_word () =
  let t, deliveries = make () in
  ignore
    (subscribe_exn t ~owner:"shopper"
       ~text:
         {|subscription Cameras
monitoring
where new self\\product contains "camera"
  and URL extends "http://shop.example.org/catalog/"
report when immediate|});
  let url = "http://shop.example.org/catalog/cat.xml" in
  ignore
    (Xyleme.ingest t ~url
       ~content:"<catalog><product><desc>a tv</desc></product></catalog>"
       ~kind:Loader.Xml);
  ignore
    (Xyleme.ingest t ~url
       ~content:
         "<catalog><product><desc>a tv</desc></product><product><desc>a camera</desc></product></catalog>"
       ~kind:Loader.Xml);
  checki "camera product reported" 1 (List.length !deliveries);
  ignore
    (Xyleme.ingest t ~url
       ~content:
         "<catalog><product><desc>a tv</desc></product><product><desc>a camera</desc></product><product><desc>a radio</desc></product></catalog>"
       ~kind:Loader.Xml);
  checki "radio product not reported" 1 (List.length !deliveries)

let test_continuous_query_over_warehouse () =
  let t, deliveries = make () in
  (* Warehouse the museum page first. *)
  ignore
    (Xyleme.ingest t ~url:"http://museums.example.org/ams.xml"
       ~content:
         {|<culture><museum><address>Amsterdam</address><painting><title>Nightwatch</title></painting></museum></culture>|}
       ~kind:Loader.Xml);
  ignore
    (subscribe_exn t ~owner:"curator"
       ~text:
         {|subscription Museums
continuous AmsterdamPaintings
select p/title
from culture/museum m, m/painting p
where m/address contains "Amsterdam"
try weekly
report when immediate|});
  Xyleme.advance t ~seconds:(7. *. 86400. +. 1.);
  match !deliveries with
  | d :: _ -> (
      match T.children_elements d.Sink.report with
      | [ wrapper ] ->
          checks "wrapper" "AmsterdamPaintings" wrapper.T.tag;
          (match T.children_elements wrapper with
          | [ title ] -> checks "title" "Nightwatch" (T.text_content title)
          | _ -> Alcotest.fail "titles")
      | _ -> Alcotest.fail "report body")
  | [] -> Alcotest.fail "expected a delivery"

let test_continuous_delta () =
  let t, deliveries = make () in
  let url = "http://museums.example.org/ams.xml" in
  let content titles =
    Printf.sprintf
      "<culture><museum><address>Amsterdam</address>%s</museum></culture>"
      (String.concat ""
         (List.map
            (fun t -> Printf.sprintf "<painting><title>%s</title></painting>" t)
            titles))
  in
  ignore (Xyleme.ingest t ~url ~content:(content [ "A" ]) ~kind:Loader.Xml);
  ignore
    (subscribe_exn t ~owner:"curator"
       ~text:
         {|subscription Museums
continuous delta AmsterdamPaintings
select p/title
from culture/museum m, m/painting p
where m/address contains "Amsterdam"
try weekly
report when immediate|});
  (* First evaluation: full answer. *)
  Xyleme.advance t ~seconds:(7. *. 86400. +. 1.);
  checki "first report" 1 (List.length !deliveries);
  (* No change: no notification at all. *)
  Xyleme.advance t ~seconds:(7. *. 86400.);
  checki "unchanged: no report" 1 (List.length !deliveries);
  (* Add a painting: delta document. *)
  ignore (Xyleme.ingest t ~url ~content:(content [ "A"; "B" ]) ~kind:Loader.Xml);
  Xyleme.advance t ~seconds:(7. *. 86400.);
  (match !deliveries with
  | d :: _ -> (
      match T.children_elements d.Sink.report with
      | [ delta ] ->
          checks "delta doc" "AmsterdamPaintings-delta" delta.T.tag;
          checkb "has inserted op" true
            (List.exists
               (fun e -> e.T.tag = "inserted")
               (T.children_elements delta))
      | _ -> Alcotest.fail "delta body")
  | [] -> Alcotest.fail "expected a delta report");
  (* first full answer + one delta; the unchanged week produced nothing *)
  checki "two deliveries total" 2 (List.length !deliveries)

let test_notification_triggered_continuous () =
  let t, deliveries = make () in
  ignore
    (Xyleme.ingest t ~url:"http://www.xyleme.com/competitors.xml"
       ~content:"<competitors><site url=\"http://niagara.example\"/></competitors>"
       ~kind:Loader.Xml);
  ignore
    (subscribe_exn t ~owner:"ceo"
       ~text:
         {|subscription XylemeCompetitors
monitoring
select <ChangeInMyProducts/>
where URL = "http://www.xyleme.com/products.xml" and modified self
continuous MyCompetitors
select //site
when XylemeCompetitors.ChangeInMyProducts
report when immediate|});
  ignore
    (Xyleme.ingest t ~url:"http://www.xyleme.com/products.xml"
       ~content:"<products><p>one</p></products>" ~kind:Loader.Xml);
  checki "initial load: nothing" 0 (List.length !deliveries);
  ignore
    (Xyleme.ingest t ~url:"http://www.xyleme.com/products.xml"
       ~content:"<products><p>two</p></products>" ~kind:Loader.Xml);
  (* modified self fires -> ChangeInMyProducts notification (report 1)
     -> triggers MyCompetitors evaluation (report 2, immediate) *)
  checki "monitoring + continuous reports" 2 (List.length !deliveries);
  let tags =
    List.concat_map
      (fun d -> List.map (fun e -> e.T.tag) (T.children_elements d.Sink.report))
      !deliveries
  in
  checkb "has ChangeInMyProducts" true (List.mem "ChangeInMyProducts" tags);
  checkb "has MyCompetitors" true (List.mem "MyCompetitors" tags)

let test_disjunctive_monitoring () =
  (* A monitoring query with two disjuncts: matching either fires one
     notification; matching both in the same document still fires only
     one (batch deduplication). *)
  let t, deliveries = make () in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription Either
monitoring
select <CatalogChange url=URL/>
where new self\\product and URL extends "http://shop.example.org/"
   or deleted self\\product and URL extends "http://shop.example.org/"
report when immediate|});
  let url = "http://shop.example.org/cat.xml" in
  ignore
    (Xyleme.ingest t ~url ~content:"<c><product>a</product></c>" ~kind:Loader.Xml);
  checki "initial load: nothing" 0 (List.length !deliveries);
  (* Insertion only -> first disjunct. *)
  ignore
    (Xyleme.ingest t ~url
       ~content:"<c><product>a</product><product>b</product></c>" ~kind:Loader.Xml);
  checki "insert fires" 1 (List.length !deliveries);
  (* Deletion only -> second disjunct. *)
  ignore
    (Xyleme.ingest t ~url ~content:"<c><product>b</product></c>" ~kind:Loader.Xml);
  checki "delete fires" 2 (List.length !deliveries);
  (* Insert AND delete in one fetch (under different parents so the
     diff cannot pair them): both disjuncts match, but the monitoring
     query notifies once. *)
  ignore
    (Xyleme.ingest t ~url
       ~content:"<c><old><product>b</product></old><new/></c>" ~kind:Loader.Xml);
  ignore !deliveries;
  let before = List.length !deliveries in
  ignore
    (Xyleme.ingest t ~url
       ~content:"<c><old/><new><product>n</product></new></c>" ~kind:Loader.Xml);
  checki "both disjuncts, single notification" (before + 1)
    (List.length !deliveries);
  match !deliveries with
  | d :: _ ->
      checki "one notification in the report" 1
        (List.length (T.children_elements d.Sink.report))
  | [] -> Alcotest.fail "delivery"

let test_deleted_page_event () =
  let t, deliveries = make () in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription Deletions
monitoring
where deleted self and URL extends "http://inria.fr/Xy/"
report when immediate|});
  ignore
    (Xyleme.ingest t ~url:"http://inria.fr/Xy/tmp.xml" ~content:"<d/>"
       ~kind:Loader.Xml);
  checki "nothing yet" 0 (List.length !deliveries);
  Xyleme.ingest_batch t
    [ { Xyleme.bd_url = "http://inria.fr/Xy/tmp.xml"; bd_content = None;
        bd_kind = Loader.Xml; bd_trace = None; bd_birth = None } ];
  checki "deletion reported" 1 (List.length !deliveries)

let test_batch_report_count () =
  let t, deliveries = make () in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription Batched
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://inria.fr/Xy/" and modified self
report when count > 2|});
  let url i = Printf.sprintf "http://inria.fr/Xy/p%d.xml" i in
  for i = 1 to 3 do
    ignore (Xyleme.ingest t ~url:(url i) ~content:"<p>v1</p>" ~kind:Loader.Xml)
  done;
  for i = 1 to 2 do
    ignore (Xyleme.ingest t ~url:(url i) ~content:"<p>v2</p>" ~kind:Loader.Xml)
  done;
  checki "no report at 2 (strict >)" 0 (List.length !deliveries);
  ignore (Xyleme.ingest t ~url:(url 3) ~content:"<p>v2</p>" ~kind:Loader.Xml);
  checki "report at 3" 1 (List.length !deliveries);
  match !deliveries with
  | [ d ] ->
      checki "all three notifications" 3
        (List.length (T.children_elements d.Sink.report))
  | _ -> Alcotest.fail "delivery"

let test_crawl_loop_end_to_end () =
  (* Run the full pipeline on the synthetic web for a simulated week:
     things must flow without errors and changes must be reported. *)
  let web = Web.generate ~seed:3 ~sites:4 ~pages_per_site:5 () in
  let t, deliveries = make ~web () in
  (* Pick a catalog page and watch its products. *)
  let catalog_url =
    List.find
      (fun url -> Web.kind_of web ~url = Some Web.Xml_page)
      (Web.urls web)
  in
  ignore
    (subscribe_exn t ~owner:"watcher"
       ~text:
         (Printf.sprintf
            {|subscription Watch
monitoring
select <UpdatedPage url=URL/>
where URL extends "%s" and modified self
report when immediate
refresh "%s" daily|}
            (String.sub catalog_url 0 24)
            catalog_url));
  Xyleme.run t ~days:7. ~step:(6. *. 3600.) ~fetch_limit:100;
  let stats = Xyleme.stats t in
  checkb "documents fetched" true (stats.Xyleme.documents_fetched > 0);
  checkb "documents stored" true (stats.Xyleme.documents_stored > 0);
  (* The watched page is mutated by evolve sooner or later; with seed 3
     over a week it changes. *)
  checkb "reports delivered" true (List.length !deliveries > 0)

let test_unsubscribe_stops_reports () =
  let t, deliveries = make () in
  let name =
    subscribe_exn t ~owner:"alice"
      ~text:
        {|subscription Stop
monitoring
where modified self and URL extends "http://inria.fr/Xy/"
report when immediate|}
  in
  let url = "http://inria.fr/Xy/x.xml" in
  ignore (Xyleme.ingest t ~url ~content:"<a>1</a>" ~kind:Loader.Xml);
  ignore (Xyleme.ingest t ~url ~content:"<a>2</a>" ~kind:Loader.Xml);
  checki "one report" 1 (List.length !deliveries);
  (match Xyleme.unsubscribe t ~name with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Xy_submgr.Manager.error_to_string e));
  ignore (Xyleme.ingest t ~url ~content:"<a>3</a>" ~kind:Loader.Xml);
  checki "no more reports" 1 (List.length !deliveries);
  checki "registry emptied" 0 (Xy_events.Registry.cardinal (Xyleme.registry t))

let test_update_subscription_system () =
  let t, deliveries = make () in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription Watch
monitoring
where modified self and URL extends "http://one.example.org/"
report when immediate|});
  (match
     Xyleme.update t ~name:"Watch" ~owner:"alice"
       ~text:
         {|subscription Watch
monitoring
where modified self and URL extends "http://two.example.org/"
report when immediate|}
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Xy_submgr.Manager.error_to_string e));
  (* Old pattern no longer fires; new one does. *)
  let fetch url v =
    ignore
      (Xyleme.ingest t ~url
         ~content:(Printf.sprintf "<p>%d</p>" v)
         ~kind:Loader.Xml)
  in
  fetch "http://one.example.org/a.xml" 1;
  fetch "http://one.example.org/a.xml" 2;
  checki "old pattern silent" 0 (List.length !deliveries);
  fetch "http://two.example.org/b.xml" 1;
  fetch "http://two.example.org/b.xml" 2;
  checki "new pattern fires" 1 (List.length !deliveries)

let test_warehouse_view_shape () =
  let t, _ = make () in
  ignore
    (Xyleme.ingest t ~url:"http://m/ams.xml"
       ~content:"<culture><museum><address>Amsterdam</address></museum></culture>"
       ~kind:Loader.Xml);
  ignore
    (Xyleme.ingest t ~url:"http://s/cat.xml"
       ~content:"<catalog><product/></catalog>" ~kind:Loader.Xml);
  let view = Xyleme.warehouse_view t in
  checks "root" "warehouse" view.T.tag;
  let domains = List.map (fun e -> e.T.tag) (T.children_elements view) in
  checkb "culture domain" true (List.mem "culture" domains);
  checkb "commerce domain" true (List.mem "commerce" domains);
  (* culture/museum resolves (root tag spliced) *)
  let path = Xy_xml.Path.parse "culture/museum" in
  checki "culture/museum" 1 (List.length (Xy_xml.Path.select path view))

let test_persistence_roundtrip () =
  let path = Filename.temp_file "xyleme_system" ".log" in
  Sys.remove path;
  let sink, _ = Sink.memory () in
  let t = Xyleme.create ~seed:1 ~sink ~persist_path:path () in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription Persisted
monitoring
where modified self and URL extends "http://inria.fr/Xy/"
report when immediate|});
  (* New system recovers from the log. *)
  let sink2, deliveries2 = Sink.memory () in
  let t2 = Xyleme.create ~seed:1 ~sink:sink2 () in
  checki "recovered" 1 (Xyleme.recover t2 path);
  let url = "http://inria.fr/Xy/p.xml" in
  ignore (Xyleme.ingest t2 ~url ~content:"<a>1</a>" ~kind:Loader.Xml);
  ignore (Xyleme.ingest t2 ~url ~content:"<a>2</a>" ~kind:Loader.Xml);
  checki "functional after recovery" 1 (List.length !deliveries2);
  Sys.remove path

let test_stats_consistency () =
  let t, _ = make () in
  ignore
    (subscribe_exn t ~owner:"a"
       ~text:
         {|subscription S
monitoring
where modified self and URL extends "http://inria.fr/Xy/"
report when immediate|});
  let url = "http://inria.fr/Xy/x.xml" in
  ignore (Xyleme.ingest t ~url ~content:"<a>1</a>" ~kind:Loader.Xml);
  ignore (Xyleme.ingest t ~url ~content:"<a>2</a>" ~kind:Loader.Xml);
  let stats = Xyleme.stats t in
  checki "stored" 1 stats.Xyleme.documents_stored;
  checki "complex events" 1 stats.Xyleme.complex_events;
  checki "atomic events" 2 stats.Xyleme.atomic_events;
  checkb "alerts sent" true (stats.Xyleme.alerts_sent >= 1);
  checki "notifications" 1 stats.Xyleme.notifications;
  checki "reports" 1 stats.Xyleme.reports

(* A traced document's journey through the facade yields one trace
   whose spans cover load → detect → match → report. *)
let test_trace_covers_pipeline () =
  let module Trace = Xy_trace.Trace in
  let t, deliveries = make () in
  let tracer = Xyleme.tracer t in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription Watch
monitoring
where URL extends "http://x/" and modified self
report when immediate|});
  let url = "http://x/a.xml" in
  let ingest content =
    let ctx = Trace.start_always tracer ~root:url in
    ignore (Xyleme.ingest ~trace:ctx t ~url ~content ~kind:Loader.Xml);
    Trace.finish ctx
  in
  ingest "<p>v1</p>";
  ingest "<p>v2</p>";
  checki "report delivered" 1 (List.length !deliveries);
  match Trace.traces tracer with
  | second :: _first :: _ ->
      let stages =
        List.sort_uniq compare
          (List.map (fun sp -> sp.Trace.sp_stage) second.Trace.tr_spans)
      in
      List.iter
        (fun stage ->
          checkb (Printf.sprintf "stage %s traced" stage) true
            (List.mem stage stages))
        [ "warehouse"; "alerters"; "mqp"; "reporter" ];
      checkb "duration covers the spans" true (second.Trace.tr_dur_wall >= 0.)
  | _ -> Alcotest.fail "expected two completed traces"

(* ------------------------------------------------------------------ *)
(* Self-monitoring: system health as ordinary monitored documents *)

let self_period = 12. *. 3600.

let stored_meta t url =
  Option.map
    (fun e -> e.Xy_warehouse.Store.meta)
    (Xy_warehouse.Store.find (Xyleme.store t) url)

(* The acceptance scenario: an operator subscribes to the system's own
   health pages with the unmodified subscription language, and the
   subscription fires through the normal loader → alerters → MQP →
   reporter path — no side channel. *)
let test_self_monitor_subscription_fires () =
  let sink, deliveries = Sink.memory () in
  let t =
    Xyleme.create ~seed:42 ~sink ~self_monitor_period:self_period ()
  in
  ignore
    (subscribe_exn t ~owner:"operator"
       ~text:
         {|subscription SelfHealth
monitoring
select <HealthAlert url=URL/>
where URL extends "xyleme://self/" and modified self
report when immediate|});
  (* Decade-marker words turn the numeric text into thresholds the
     word predicate can test: "over_1" appears once the warehouse has
     loaded at least one document. *)
  ignore
    (subscribe_exn t ~owner:"operator"
       ~text:
         {|subscription WarehouseGrowth
monitoring
where modified self\\warehouse_loaded_new contains "over_1"
  and URL extends "xyleme://self/metrics"
report when immediate|});
  (* Steps that fetch nothing: only the self pages flow. *)
  let step () =
    Xyleme.advance t ~seconds:(self_period /. 2.);
    ignore (Xyleme.crawl_step t ~limit:0)
  in
  step ();
  checkb "not due before one period" true
    (stored_meta t Xy_system.Self_monitor.health_url = None);
  (* First injection: the health pages are new, nothing is modified
     yet. *)
  step ();
  checki "both self pages alerted the processor" 2
    (Xyleme.stats t).Xyleme.alerts_sent;
  checki "new pages do not fire modified-self" 0 (List.length !deliveries);
  step ();
  checki "not due again within the period" 2 (Xyleme.stats t).Xyleme.alerts_sent;
  (* The injection itself moved the metrics (two documents loaded), so
     the second health page differs from the first: modified-self and
     the over_1 threshold both fire. *)
  step ();
  checkb "second health page matched" true
    ((Xyleme.stats t).Xyleme.notifications > 0);
  (match stored_meta t Xy_system.Self_monitor.health_url with
  | Some meta ->
      checki "two health versions" 2 meta.Xy_warehouse.Meta.version;
      Alcotest.(check (float 0.)) "loaded at the period boundary"
        (2. *. self_period) meta.Xy_warehouse.Meta.last_accessed
  | None -> Alcotest.fail "health page not stored");
  let fired =
    List.sort_uniq compare
      (List.map (fun d -> d.Sink.subscription) !deliveries)
  in
  Alcotest.(check (list string))
    "both health subscriptions reported"
    [ "SelfHealth"; "WarehouseGrowth" ]
    fired;
  (* The report body names the self URL, like any monitored page. *)
  List.iter
    (fun d ->
      if d.Sink.subscription = "SelfHealth" then
        match T.children_elements d.Sink.report with
        | [ alert ] ->
            checks "tag" "HealthAlert" alert.T.tag;
            checkb "self url" true
              (match T.attr alert "url" with
              | Some url ->
                  String.length url >= 14
                  && String.sub url 0 14 = "xyleme://self/"
              | None -> false)
        | _ -> Alcotest.fail "expected one HealthAlert")
    !deliveries

(* A zero period used to spin [advance] forever; a non-finite one
   would make every step due or none.  Both entry points reject it
   before anything is opened. *)
let test_self_monitor_period_validated () =
  List.iter
    (fun p ->
      match Xyleme.create ~self_monitor_period:p () with
      | _ -> Alcotest.failf "create accepted period %g" p
      | exception Invalid_argument _ -> ())
    [ 0.; -3600.; Float.nan; Float.infinity ]

(* ------------------------------------------------------------------ *)
(* Freshness: staleness accounting, SLO alerting, metric carry *)

module Obs = Xy_obs.Obs
module Slo = Xy_slo.Slo

let test_monotonic_wall () =
  (* The timer installed into xy_obs/xy_trace at [create]: wall-clock
     scale, and ratcheted so it can never retreat even if the
     underlying clock steps backwards. *)
  let prev = ref 0. in
  for _ = 1 to 1_000 do
    let t = Xy_system.Wall.monotonic () in
    checkb "never retreats" true (t >= !prev);
    prev := t
  done;
  (* seconds-since-epoch, not CPU seconds *)
  checkb "wall-clock scale" true (!prev > 1e9)

let day_step = 6. *. 3600.

let test_staleness_accounting () =
  let web = Web.generate ~seed:3 ~sites:4 ~pages_per_site:5 () in
  let sink, _ = Sink.memory () in
  let obs = Obs.create () in
  let t = Xyleme.create ~seed:3 ~sink ~web ~obs () in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription Fresh
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site" and modified self
report when immediate|});
  Xyleme.run t ~days:6. ~step:day_step ~fetch_limit:50;
  let snap = Obs.snapshot obs in
  (* Every web mutation carries its virtual birth stamp; the crawler
     observes birth->fetch on each changed page it brings in. *)
  (match Obs.Snapshot.find snap ~stage:"crawler" "detection_lag" with
  | Some (Obs.Snapshot.Histogram h) ->
      checkb "changes detected" true (h.Obs.Snapshot.count > 0);
      checkb "lags are non-negative" true (h.Obs.Snapshot.sum >= 0.);
      (* A change cannot sit undetected longer than the whole run. *)
      checkb "lag bounded by run length" true
        (h.Obs.Snapshot.max_value <= 6. *. 86_400.)
  | _ -> Alcotest.fail "crawler/detection_lag histogram missing");
  (* Immediate reports propagate the birth stamp to the reporter:
     birth->report is the end-to-end notification lag. *)
  (match Obs.Snapshot.find snap ~stage:"reporter" "notification_lag" with
  | Some (Obs.Snapshot.Histogram h) ->
      checkb "notifications observed" true (h.Obs.Snapshot.count > 0)
  | _ -> Alcotest.fail "reporter/notification_lag histogram missing");
  (* The watermark gauge tracks the oldest still-undetected change. *)
  match Obs.Snapshot.find snap ~stage:"crawler" "staleness_watermark_age" with
  | Some (Obs.Snapshot.Gauge age) -> checkb "watermark age" true (age >= 0.)
  | _ -> Alcotest.fail "staleness watermark gauge missing"

let test_slo_breach_fires_report () =
  (* The alerting loop closes through the system's own pipeline: a
     breached objective is injected as an [xyleme://self/slo/...]
     document, and an ordinary subscription on that URL space turns
     it into a report — no special-cased alert path. *)
  let web = Web.generate ~seed:5 ~sites:3 ~pages_per_site:4 () in
  let sink, deliveries = Sink.memory () in
  let obs = Obs.create () in
  (* Impossible objective: detection within 1 virtual second.  Every
     detection at a 6h crawl step is bad, so both windows burn at
     1/(1-0.9) = 10x from the first evaluation with samples. *)
  let objective =
    {
      Slo.o_name = "fresh";
      o_stage = "crawler";
      o_metric = "detection_lag";
      o_threshold = 1.;
      o_target = 0.9;
      o_fast_window = 86_400.;
      o_slow_window = 2. *. 86_400.;
      o_burn_limit = 1.;
    }
  in
  let t = Xyleme.create ~seed:5 ~sink ~web ~obs ~slos:[ objective ] () in
  (* Two watchers cover both shapes a breach can take: the objective's
     document appearing already-breached, or flipping ok -> breached
     on a later evaluation (status documents are re-injected only on
     flips).  A healthy objective fires neither. *)
  ignore
    (subscribe_exn t ~owner:"oncall"
       ~text:
         {|subscription SloWatchNew
monitoring
select <SloAlert url=URL/>
where URL extends "xyleme://self/slo/" and new self and self contains "breached"
report when immediate|});
  ignore
    (subscribe_exn t ~owner:"oncall"
       ~text:
         {|subscription SloWatchFlip
monitoring
select <SloAlert url=URL/>
where URL extends "xyleme://self/slo/" and modified self\\status contains "breached"
report when immediate|});
  Xyleme.run t ~days:6. ~step:day_step ~fetch_limit:50;
  (* The engine judged the objective breached... *)
  (match Xyleme.slo_reports t with
  | [ r ] ->
      checkb "objective breached" true (r.Slo.r_status = Slo.Breached);
      checkb "burning hard" true (r.Slo.r_fast_burn >= 1.)
  | _ -> Alcotest.fail "expected one slo report");
  (* ...and the ordinary subscription saw the injected document. *)
  let fired =
    List.filter
      (fun d ->
        d.Sink.subscription = "SloWatchNew"
        || d.Sink.subscription = "SloWatchFlip")
      !deliveries
  in
  checkb "a breach watcher reported" true (fired <> []);
  List.iter
    (fun d ->
      match T.children_elements d.Sink.report with
      | alert :: _ ->
          checks "tag" "SloAlert" alert.T.tag;
          (match T.attr alert "url" with
          | Some url -> checks "url" "xyleme://self/slo/fresh.xml" url
          | None -> Alcotest.fail "alert lacks url")
      | [] -> Alcotest.fail "empty SloWatch report")
    fired

let rm_rf path =
  let rec go p =
    if Sys.is_directory p then (
      Array.iter (fun e -> go (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p)
    else Sys.remove p
  in
  if Sys.file_exists path then go path

let with_temp_dir f =
  let dir = Filename.temp_file "xy_system_obs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_restore_carries_metrics () =
  (* Warm restart must not zero the observability story: cumulative
     metrics ride the checkpoint ("obs" section) and keep counting,
     and the [system/restarts] counter records directory lifetime. *)
  with_temp_dir @@ fun dir ->
  let fresh_web () = Web.generate ~seed:7 ~sites:3 ~pages_per_site:4 () in
  let sink, _ = Sink.memory () in
  let obs1 = Obs.create () in
  let x =
    Xyleme.create ~seed:7 ~sink ~web:(fresh_web ()) ~obs:obs1 ~durable_dir:dir
      ()
  in
  ignore
    (subscribe_exn x ~owner:"alice"
       ~text:
         {|subscription D
monitoring
where modified self and URL extends "http://site"
report when count > 2 atmost daily|});
  Xyleme.run_resumable x ~days:2. ~step:day_step ~fetch_limit:50;
  ignore (Xyleme.checkpoint x);
  let fetched_before =
    Obs.Snapshot.counter_value (Obs.snapshot obs1) ~stage:"crawler" "fetches"
  in
  checkb "counted some fetches" true (fetched_before > 0);
  checki "fresh directory: no restarts" 0 (Xyleme.restarts x);
  let sink2, _ = Sink.memory () in
  let obs2 = Obs.create () in
  match
    Xyleme.restore ~seed:7 ~web:(fresh_web ()) ~sink:sink2 ~obs:obs2 ~dir ()
  with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (x', _info) ->
      checki "restart counted" 1 (Xyleme.restarts x');
      let carried =
        Obs.Snapshot.counter_value (Obs.snapshot obs2) ~stage:"crawler" "fetches"
      in
      checkb "cumulative counter carried" true (carried >= fetched_before);
      (* The carried metrics keep counting as the run resumes. *)
      Xyleme.run_resumable x' ~days:3. ~step:day_step ~fetch_limit:50;
      let after =
        Obs.Snapshot.counter_value (Obs.snapshot obs2) ~stage:"crawler" "fetches"
      in
      checkb "still counting" true (after > carried)

let test_restore_rejects_bad_period () =
  with_temp_dir @@ fun dir ->
  let x = Xyleme.create ~seed:7 ~durable_dir:dir () in
  Xyleme.run_resumable x ~days:0.5 ~step:day_step ~fetch_limit:10;
  List.iter
    (fun p ->
      match Xyleme.restore ~seed:7 ~self_monitor_period:p ~dir () with
      | _ -> Alcotest.failf "restore accepted period %g" p
      | exception Invalid_argument _ -> ())
    [ 0.; -1.; Float.nan; Float.infinity ]

(* The self-monitor schedule is read off the warehouse, so a kill
   anywhere in a step that injects — between the health and the trace
   page included — resumes on the uninterrupted run's schedule: every
   page keeps its version count and load times. *)
let test_self_monitor_survives_restore () =
  let fresh_web () = Web.generate ~seed:7 ~sites:3 ~pages_per_site:4 () in
  (* every commit synced: a kill loses only the transaction it cuts *)
  let create ?durable_dir () =
    Xyleme.create ~seed:7 ~web:(fresh_web ()) ~self_monitor_period:self_period
      ?durable_dir ~sync_every:1 ()
  in
  let pages t =
    List.map
      (fun url ->
        match stored_meta t url with
        | Some m -> (m.Xy_warehouse.Meta.version, m.Xy_warehouse.Meta.last_accessed)
        | None -> (0, 0.))
      [ Xy_system.Self_monitor.health_url; Xy_system.Self_monitor.traces_url ]
  in
  (* one 6 h step at a time up to step [last], recording the self
     pages after each *)
  let steps t ~last =
    List.init
      (last - Xyleme.steps_done t)
      (fun _ ->
        Xyleme.run_resumable t
          ~days:(float_of_int (Xyleme.steps_done t + 1) *. 0.25)
          ~step:day_step ~fetch_limit:50;
        pages t)
  in
  let expected = steps (create ()) ~last:12 in
  (* Five steps, then a kill at the K-th crash point of the sixth
     (36 h, an injection), for every K until the kill lands past it. *)
  let self_kills = ref 0 in
  let rec kill_at k =
    let past_step_six =
      with_temp_dir @@ fun dir ->
      let x = create ~durable_dir:dir () in
      let before = steps x ~last:5 in
      Fault.arm_after (Xyleme.faults x) "crash" k;
      match steps x ~last:12 with
      | _ -> Alcotest.fail "the armed crash did not fire"
      | exception Fault.Crash _ when Xyleme.steps_done x > 5 -> true
      | exception Fault.Crash label -> (
          if String.starts_with ~prefix:"ingest:xyleme://self/" label then
            incr self_kills;
          match
            Xyleme.restore ~seed:7 ~web:(fresh_web ())
              ~self_monitor_period:self_period ~sync_every:1 ~dir ()
          with
          | Error e -> Alcotest.failf "K=%d: restore failed: %s" k e
          | Ok (x', _) ->
              Alcotest.(check (list (list (pair int (float 0.)))))
                (Printf.sprintf "K=%d (%s): versions and load times" k label)
                expected
                (before @ steps x' ~last:12);
              false)
    in
    if not past_step_six then kill_at (k + 1)
  in
  kill_at 1;
  checki "killed at both self pages" 2 !self_kills

(* An SLO page is re-ingested only when its status word changes — also
   across a warm restart, which starts the engine with no reports.  A
   never-breached objective's page is stored once, so a watcher on
   modifications of it never fires, killed run or not. *)
let test_slo_pages_survive_restore () =
  let fresh_web () = Web.generate ~seed:5 ~sites:3 ~pages_per_site:4 () in
  let lax =
    {
      Slo.o_name = "lax";
      o_stage = "crawler";
      o_metric = "detection_lag";
      o_threshold = 1e9;
      o_target = 0.5;
      o_fast_window = 86_400.;
      o_slow_window = 2. *. 86_400.;
      o_burn_limit = 1.;
    }
  in
  let watcher t =
    ignore
      (subscribe_exn t ~owner:"oncall"
         ~text:
           {|subscription SloWatch
monitoring
select <SloAlert url=URL/>
where URL extends "xyleme://self/slo/" and modified self
report when immediate|})
  in
  let watched deliveries =
    List.sort_uniq compare
      (List.filter_map
         (fun d ->
           if d.Sink.subscription = "SloWatch" then Some d.Sink.seq else None)
         deliveries)
  in
  let run t days = Xyleme.run_resumable t ~days ~step:day_step ~fetch_limit:50 in
  let sink, deliveries = Sink.memory () in
  let baseline =
    Xyleme.create ~seed:5 ~sink ~web:(fresh_web ()) ~slos:[ lax ] ()
  in
  watcher baseline;
  run baseline 6.;
  (match Xyleme.slo_reports baseline with
  | [ r ] -> checkb "objective never breached" false (r.Slo.r_status = Slo.Breached)
  | _ -> Alcotest.fail "expected one slo report");
  with_temp_dir @@ fun dir ->
  let sink1, deliveries1 = Sink.memory () in
  let x =
    Xyleme.create ~seed:5 ~sink:sink1 ~web:(fresh_web ()) ~slos:[ lax ]
      ~durable_dir:dir ()
  in
  watcher x;
  (* step 12 of 24 completes, then the kill lands on step 13's advance *)
  run x 3.;
  Fault.arm_after (Xyleme.faults x) "crash" 1;
  (try run x 6. with Fault.Crash _ -> ());
  let sink2, deliveries2 = Sink.memory () in
  match
    Xyleme.restore ~seed:5 ~sink:sink2 ~web:(fresh_web ()) ~slos:[ lax ] ~dir ()
  with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (x', _) ->
      run x' 6.;
      checki "steps" 24 (Xyleme.steps_done x');
      checki "watcher reports equal the uninterrupted run's"
        (List.length (watched !deliveries))
        (List.length (watched (!deliveries1 @ !deliveries2)))

(* A warm restart starts the SLO engine with no samples, so its first
   evaluation has an empty fast window.  That must read as unknown and
   inject nothing: the stored page of an objective breached from the
   first judged window on never reads ok, killed run or not. *)
let test_slo_restart_keeps_breached () =
  let fresh_web () = Web.generate ~seed:5 ~sites:3 ~pages_per_site:4 () in
  (* a threshold under the first bucket bound (1 s): no sample is
     ever good, so every judged window is breached *)
  let impossible =
    {
      Slo.o_name = "fresh";
      o_stage = "crawler";
      o_metric = "detection_lag";
      o_threshold = 0.5;
      o_target = 0.9;
      o_fast_window = 86_400.;
      o_slow_window = 2. *. 86_400.;
      o_burn_limit = 1.;
    }
  in
  (* the stored page's status word after each step, repeats dropped *)
  let statuses = ref [] in
  let step_to t steps =
    while Xyleme.steps_done t < steps do
      Xyleme.run_resumable t
        ~days:(float_of_int (Xyleme.steps_done t + 1) /. 4.)
        ~step:day_step ~fetch_limit:50;
      let stored =
        Xy_warehouse.Store.find (Xyleme.store t)
          (Xy_system.Self_monitor.slo_url "fresh")
      in
      match Option.bind stored (fun e -> e.Xy_warehouse.Store.tree) with
      | None -> ()
      | Some page ->
          let status =
            List.find_map
              (fun c ->
                if c.T.tag = "status" then Some (String.trim (T.text_content c))
                else None)
              (T.children_elements (Xy_xml.Xid.strip page))
          in
          if Some status <> List.nth_opt !statuses 0 then
            statuses := status :: !statuses
    done
  in
  with_temp_dir @@ fun dir ->
  let sink1, _ = Sink.memory () in
  let x =
    Xyleme.create ~seed:5 ~sink:sink1 ~web:(fresh_web ())
      ~slos:[ impossible ] ~durable_dir:dir ()
  in
  step_to x 12;
  Fault.arm_after (Xyleme.faults x) "crash" 1;
  (try step_to x 24 with Fault.Crash _ -> ());
  checki "killed after 12 steps" 12 (Xyleme.steps_done x);
  let sink2, _ = Sink.memory () in
  match
    Xyleme.restore ~seed:5 ~sink:sink2 ~web:(fresh_web ())
      ~slos:[ impossible ] ~dir ()
  with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (x', _) ->
      step_to x' 24;
      checki "steps" 24 (Xyleme.steps_done x');
      Alcotest.(check (list (option string)))
        "stored status sequence never passes through ok"
        [ Some "breached" ] (List.rev !statuses)

(* ------------------------------------------------------------------ *)
(* Bus *)

module Bus = Xy_system.Bus

let test_bus_fifo () =
  let bus = Bus.create () in
  List.iter (Bus.push bus) [ 1; 2; 3 ];
  checki "length" 3 (Bus.length bus);
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ]
    (List.filter_map (fun () -> Bus.pop bus) [ (); (); () ]);
  Bus.close bus;
  checkb "drained then none" true (Bus.pop bus = None)

let test_bus_close_semantics () =
  let bus = Bus.create () in
  Bus.push bus "x";
  Bus.close bus;
  Bus.close bus;
  (* idempotent *)
  checkb "drain after close" true (Bus.pop bus = Some "x");
  checkb "then end of stream" true (Bus.pop bus = None);
  match Bus.push bus "y" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "push after close must fail"

let test_bus_cross_domain () =
  let bus = Bus.create ~capacity:8 () in
  let n = 1000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          Bus.push bus i
        done;
        Bus.close bus)
  in
  let rec consume acc =
    match Bus.pop bus with None -> List.rev acc | Some x -> consume (x :: acc)
  in
  let received = consume [] in
  Domain.join producer;
  checki "all messages" n (List.length received);
  Alcotest.(check (list int)) "in order" (List.init n (fun i -> i + 1)) received

(* Regression: a producer blocked on a full bus that loses to a
   concurrent [close] must raise — not deadlock or silently drop the
   message — and must still record its blocked-duration sample (the
   close path used to raise before observing it, so stalls that ended
   in shutdown vanished from the histogram). *)
let test_bus_close_push_race () =
  let obs = Xy_obs.Obs.create () in
  let bus = Bus.create ~capacity:1 ~obs ~name:"race" () in
  let blocked = Xy_obs.Obs.histogram obs ~stage:"bus" "race_blocked" in
  Bus.push bus 0;
  (* capacity reached: the next push must block *)
  let attempted = Atomic.make false in
  let producer =
    Domain.spawn (fun () ->
        Atomic.set attempted true;
        match Bus.push bus 1 with
        | () -> `Pushed
        | exception Invalid_argument _ -> `Raised)
  in
  while not (Atomic.get attempted) do
    Domain.cpu_relax ()
  done;
  (* Let the producer park on the not-full condition, then close
     underneath it. *)
  Unix.sleepf 0.05;
  Bus.close bus;
  checkb "blocked push raises on close" true (Domain.join producer = `Raised);
  checki "blocked stall recorded" 1 (Xy_obs.Obs.Histogram.count blocked);
  (* A push that finds the bus already closed raises immediately and
     contributes no stall sample — it never blocked. *)
  (match Bus.push bus 2 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "push after close must fail");
  checki "immediate rejection adds no stall sample" 1
    (Xy_obs.Obs.Histogram.count blocked)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "system"
    [
      ( "paper scenarios",
        [
          tc "updated page report" test_ingest_updated_page_report;
          tc "new member element" test_new_member_element_report;
          tc "catalog watch with word" test_catalog_watch_with_word;
          tc "continuous over warehouse" test_continuous_query_over_warehouse;
          tc "continuous delta" test_continuous_delta;
          tc "notification-triggered continuous" test_notification_triggered_continuous;
          tc "disjunctive monitoring" test_disjunctive_monitoring;
          tc "deleted page" test_deleted_page_event;
          tc "batched report" test_batch_report_count;
        ] );
      ( "pipeline",
        [
          tc "crawl loop end to end" test_crawl_loop_end_to_end;
          tc "unsubscribe stops reports" test_unsubscribe_stops_reports;
          tc "update replaces subscription" test_update_subscription_system;
          tc "warehouse view" test_warehouse_view_shape;
          tc "persistence roundtrip" test_persistence_roundtrip;
          tc "stats" test_stats_consistency;
          tc "trace covers pipeline" test_trace_covers_pipeline;
          tc "self-monitor subscription" test_self_monitor_subscription_fires;
          tc "self-monitor period validated" test_self_monitor_period_validated;
        ] );
      ( "freshness",
        [
          tc "monotonic wall" test_monotonic_wall;
          tc "staleness accounting" test_staleness_accounting;
          tc "slo breach fires report" test_slo_breach_fires_report;
          tc "restore carries metrics" test_restore_carries_metrics;
          tc "restore rejects a bad self-monitor period" test_restore_rejects_bad_period;
          tc "self-monitor schedule survives restore" test_self_monitor_survives_restore;
          tc "slo pages survive restore" test_slo_pages_survive_restore;
          tc "slo restart keeps a breach breached"
            test_slo_restart_keeps_breached;
        ] );
      ( "bus",
        [
          tc "fifo" test_bus_fifo;
          tc "close semantics" test_bus_close_semantics;
          tc "cross-domain" test_bus_cross_domain;
          tc "close/push race" test_bus_close_push_race;
        ] );
    ]
