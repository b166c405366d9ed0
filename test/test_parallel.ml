(* The sharded pipeline must be observationally identical to the
   serial loop: same notification multiset, same stats, same
   per-stage counter totals, same write-ahead log — on both
   distribution axes, with and without work stealing and worker-death
   faults.  Plus per-axis fan-out, cross-domain trace propagation,
   configuration validation, and unit tests for the work-stealing bus
   primitives, the padded counters and the idempotent wall-clock
   installation. *)

module Xyleme = Xy_system.Xyleme
module Parallel = Xy_system.Parallel
module Bus = Xy_system.Bus
module Pad = Xy_system.Pad
module Wall = Xy_system.Wall
module Web = Xy_crawler.Synthetic_web
module Sink = Xy_reporter.Sink
module Loader = Xy_warehouse.Loader
module Mqp = Xy_core.Mqp
module Partition = Xy_core.Partition
module Obs = Xy_obs.Obs
module Fault = Xy_fault.Fault
module Trace = Xy_trace.Trace
module Durable = Xy_durable.Durable

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Bus primitives *)

let test_bus_try_pop () =
  let bus = Bus.create ~capacity:8 ~obs:(Obs.create ()) () in
  checkb "empty" true (Bus.try_pop bus = None);
  Bus.push bus 1;
  Bus.push bus 2;
  checkb "fifo" true (Bus.try_pop bus = Some 1);
  checkb "fifo 2" true (Bus.try_pop bus = Some 2);
  checkb "drained needs close" false (Bus.drained bus);
  Bus.close bus;
  checkb "drained" true (Bus.drained bus);
  checkb "closed try_pop" true (Bus.try_pop bus = None)

let test_bus_steal_half () =
  let obs = Obs.create () in
  let bus = Bus.create ~capacity:16 ~obs () in
  List.iter (Bus.push bus) [ 1; 2; 3; 4; 5; 6; 7 ];
  (* ceil(7/2) = 4 stolen from the back, in order; victim keeps the
     front 3 so its local order is preserved. *)
  Alcotest.(check (list int)) "stolen back half" [ 4; 5; 6; 7 ] (Bus.steal_half bus);
  checki "victim keeps front" 3 (Bus.length bus);
  Alcotest.(check (list int)) "front order intact" [ 1; 2; 3 ]
    (List.filter_map (fun _ -> Bus.try_pop bus) [ (); (); () ]);
  (* Under 2 queued: nothing to steal. *)
  Bus.push bus 9;
  Alcotest.(check (list int)) "single item not stolen" [] (Bus.steal_half bus);
  checkb "item still there" true (Bus.try_pop bus = Some 9)

(* ------------------------------------------------------------------ *)
(* Padded counters *)

let test_pad () =
  let pad = Pad.create 4 in
  Pad.incr pad 0;
  Pad.incr pad 0;
  Pad.add pad 3 40;
  checki "slot 0" 2 (Pad.get pad 0);
  checki "slot 1" 0 (Pad.get pad 1);
  checki "slot 3" 40 (Pad.get pad 3);
  checki "total" 42 (Pad.total pad)

(* ------------------------------------------------------------------ *)
(* Wall clock *)

let test_wall_idempotent () =
  Wall.install_timers ();
  Wall.install_timers ();
  (* second call is a no-op, not an error *)
  let t1 = Wall.monotonic () in
  let t2 = Wall.monotonic () in
  checkb "never retreats" true (t2 >= t1)

(* ------------------------------------------------------------------ *)
(* Serial ≡ parallel equivalence *)

let subscription_text i ~sites =
  let site = i mod sites in
  match i mod 3 with
  | 0 ->
      Printf.sprintf
        {|subscription P%d
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site%d.example.org/" and modified self
report when immediate|}
        i site
  | 1 ->
      Printf.sprintf
        {|subscription N%d
monitoring
where new self\\product contains "%s" and URL extends "http://site%d.example.org/"
report when count > 3 atmost weekly|}
        i
        [| "camera"; "television"; "laptop"; "speaker" |].(i mod 4)
        site
  | _ ->
      Printf.sprintf
        {|subscription W%d
monitoring
where self contains "%s" and URL extends "http://site%d.example.org/"
report when count > 5 atmost weekly|}
        i
        [| "wireless"; "portable"; "digital"; "stereo" |].(i mod 4)
        site

let sites = 6

(* A system over a small synthetic web with 18 subscriptions. *)
let make_system ?fault_plan ?parallel ?algorithm ?durable_dir ~sink ~obs () =
  let web = Web.generate ~seed:5 ~sites ~pages_per_site:4 () in
  let t =
    Xyleme.create ~seed:11 ?algorithm ~sink ~web ~obs ?fault_plan ?parallel
      ?durable_dir ()
  in
  for i = 0 to 17 do
    match Xyleme.subscribe t ~owner:(Printf.sprintf "u%d" i)
            ~text:(subscription_text i ~sites)
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Xy_submgr.Manager.error_to_string e)
  done;
  (t, web)

(* One batch: every page of the web, fetched now.  [trace url] is the
   trace context the document carries, if sampled. *)
let fetch_batch ?(trace = fun _ -> None) web =
  List.filter_map
    (fun url ->
      match Web.fetch web ~url with
      | Some content ->
          let kind =
            match Web.kind_of web ~url with
            | Some Web.Xml_page -> Loader.Xml
            | Some Web.Html_page -> Loader.Html
            | None -> Loader.Auto
          in
          Some
            { Xyleme.bd_url = url; bd_content = Some content; bd_kind = kind;
              bd_trace = trace url; bd_birth = None }
      | None -> None)
    (Web.urls web)

type run = {
  notifs : string list;  (** the notification multiset, sorted *)
  deliveries : int;
  stats : Xyleme.stats;
  snap : Obs.Snapshot.t;
  worker_faults : int;  (** [Fault.injected] for the [worker] point *)
}

(* An unparseable page, appended to every batch: it is quarantined,
   and must be counted the same way in every mode. *)
let broken_doc =
  { Xyleme.bd_url = "http://site0.example.org/broken.xml";
    bd_content = Some "<a><b></a>"; bd_kind = Loader.Xml; bd_trace = None;
    bd_birth = None }

(* One deterministic workload: the web evolved over [rounds] batches
   through [ingest_batch], one quarantined document per batch. *)
let run_workload ?fault_plan ?parallel ?algorithm ~rounds () =
  let sink, deliveries = Sink.memory () in
  let obs = Obs.create () in
  let t, web = make_system ?fault_plan ?parallel ?algorithm ~sink ~obs () in
  let notifs = ref [] in
  Mqp.on_batch (Xyleme.mqp t) (fun a matched ->
      List.iter
        (fun id ->
          notifs := Printf.sprintf "%d|%s|%s" id a.Mqp.url a.Mqp.payload :: !notifs)
        matched);
  for _round = 1 to rounds do
    Xyleme.ingest_batch t (fetch_batch web @ [ broken_doc ]);
    Xy_util.Clock.advance (Xyleme.clock t) 3600.;
    ignore (Web.evolve web ~elapsed:3600.)
  done;
  {
    notifs = List.sort compare !notifs;
    deliveries = List.length !deliveries;
    stats = Xyleme.stats t;
    snap = Obs.snapshot obs;
    worker_faults = Fault.injected (Xyleme.faults t) "worker";
  }

(* Counter totals per stage, excluding the stages that legitimately
   differ between modes: [bus] (queues and steals exist only in
   parallel runs) and [fault] (deaths/respawns likewise). *)
let pipeline_counters (snap : Obs.Snapshot.t) =
  List.filter_map
    (fun e ->
      match e.Obs.Snapshot.value with
      | Obs.Snapshot.Counter n
        when e.Obs.Snapshot.stage <> "bus" && e.Obs.Snapshot.stage <> "fault" ->
          Some (e.Obs.Snapshot.stage, e.Obs.Snapshot.name, n)
      | _ -> None)
    snap.Obs.Snapshot.entries

let ingest_latency_count run =
  match Obs.Snapshot.find run.snap ~stage:"system" "ingest_latency" with
  | Some (Obs.Snapshot.Histogram h) -> h.Obs.Snapshot.count
  | _ -> 0

let check_equiv ~label serial parallel_run =
  let s_stats = serial.stats and p_stats = parallel_run.stats in
  (* [pipeline_counters] skips the [fault] stage, and histograms are
     not counters: the quarantine count and the ingest timings are
     checked by name *)
  let quarantined run =
    Obs.Snapshot.counter_value run.snap ~stage:"fault" "quarantined"
  in
  checkb (label ^ ": documents quarantined") true (quarantined serial > 0);
  checki (label ^ ": quarantined") (quarantined serial)
    (quarantined parallel_run);
  checki (label ^ ": ingest latency samples")
    (ingest_latency_count serial)
    (ingest_latency_count parallel_run);
  Alcotest.(check (list string))
    (label ^ ": notification multiset") serial.notifs parallel_run.notifs;
  checki (label ^ ": deliveries") serial.deliveries parallel_run.deliveries;
  checki (label ^ ": notifications") s_stats.Xyleme.notifications
    p_stats.Xyleme.notifications;
  checki (label ^ ": alerts") s_stats.Xyleme.alerts_sent
    p_stats.Xyleme.alerts_sent;
  checki (label ^ ": stored") s_stats.Xyleme.documents_stored
    p_stats.Xyleme.documents_stored;
  checki (label ^ ": reports") s_stats.Xyleme.reports p_stats.Xyleme.reports;
  List.iter2
    (fun (st, n, sv) (pt, pn, pv) ->
      Alcotest.(check string) (label ^ ": counter name") (st ^ "/" ^ n)
        (pt ^ "/" ^ pn);
      checki (label ^ ": counter " ^ st ^ "/" ^ n) sv pv)
    (pipeline_counters serial.snap)
    (pipeline_counters parallel_run.snap)

let parallel ?(steal = true) ~domains ~shards axis =
  { Parallel.default_config with domains; shards; axis; steal }

let serial_baseline = lazy (run_workload ~rounds:3 ())

let test_equiv_docs_axis () =
  let serial = Lazy.force serial_baseline in
  check_equiv ~label:"docs/steal" serial
    (run_workload ~rounds:3
       ~parallel:(parallel ~domains:3 ~shards:2 Partition.Split_documents)
       ());
  check_equiv ~label:"docs/no-steal" serial
    (run_workload ~rounds:3
       ~parallel:
         (parallel ~steal:false ~domains:2 ~shards:3
            Partition.Split_documents)
       ())

let test_equiv_subs_axis () =
  let serial = Lazy.force serial_baseline in
  check_equiv ~label:"subs/steal" serial
    (run_workload ~rounds:3
       ~parallel:(parallel ~domains:2 ~shards:3 Partition.Split_subscriptions)
       ());
  check_equiv ~label:"subs/no-steal" serial
    (run_workload ~rounds:3
       ~parallel:
         (parallel ~steal:false ~domains:3 ~shards:2
            Partition.Split_subscriptions)
       ())

(* The compact matcher, the only non-default production algorithm:
   the document axis shares its frozen structure across shards, the
   subscription axis freezes one subset per shard.  Every
   combination must agree with the serial aes-compact run. *)
let test_equiv_compact () =
  let algorithm = Mqp.Use_aes_compact in
  let serial = run_workload ~algorithm ~rounds:2 () in
  List.iter
    (fun (label, axis, steal) ->
      check_equiv ~label:("compact/" ^ label) serial
        (run_workload ~algorithm ~rounds:2
           ~parallel:(parallel ~steal ~domains:2 ~shards:3 axis)
           ()))
    [
      ("docs/steal", Partition.Split_documents, true);
      ("docs/no-steal", Partition.Split_documents, false);
      ("subs/steal", Partition.Split_subscriptions, true);
      ("subs/no-steal", Partition.Split_subscriptions, false);
    ]

(* Worker-death faults: shards die holding work, the supervisor
   respawns them with that work carried over — the output must not
   change.  The serial baseline runs without the fault plan (the
   [worker] point only exists in the parallel engine). *)
let test_equiv_worker_deaths () =
  let serial = Lazy.force serial_baseline in
  let fault_counter run name =
    Obs.Snapshot.counter_value run.snap ~stage:"fault" name
  in
  let deaths_of run = fault_counter run "worker_deaths" in
  (* every injected death is one shard death, and every death was
     respawned *)
  let check_respawns ~label run =
    checki (label ^ ": deaths = injections") run.worker_faults (deaths_of run);
    checki (label ^ ": respawns = deaths") (deaths_of run)
      (fault_counter run "worker_respawns")
  in
  let docs =
    run_workload ~rounds:3
      ~fault_plan:[ ("worker", 0.5) ]
      ~parallel:(parallel ~domains:3 ~shards:2 Partition.Split_documents)
      ()
  in
  checkb "docs axis: deaths occurred" true (deaths_of docs > 0);
  check_respawns ~label:"docs" docs;
  check_equiv ~label:"docs/deaths" serial docs;
  let subs =
    run_workload ~rounds:3
      ~fault_plan:[ ("worker", 0.5) ]
      ~parallel:(parallel ~domains:2 ~shards:3 Partition.Split_subscriptions)
      ()
  in
  checkb "subs axis: deaths occurred" true (deaths_of subs > 0);
  check_respawns ~label:"subs" subs;
  check_equiv ~label:"subs/deaths" serial subs

let with_temp_dir f =
  let dir = Filename.temp_file "xy_parallel" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () -> f dir)

(* The journal is part of the contract: a durable run writes the same
   WAL, op for op and in the same transactions, whatever the
   configuration.  Fetch failures and malformed (quarantined)
   documents are armed so the failure paths journal too. *)
let durable_wal ?parallel () =
  with_temp_dir @@ fun dir ->
  let sink, _ = Sink.memory () in
  let obs = Obs.create () in
  let t, _web =
    make_system ~sink ~obs ?parallel ~durable_dir:dir
      ~fault_plan:[ ("fetch", 0.1); ("malformed", 0.05) ]
      ()
  in
  Xyleme.run t ~days:3. ~step:(6. *. 3600.) ~fetch_limit:200;
  let quarantined =
    Obs.Snapshot.counter_value (Obs.snapshot obs) ~stage:"fault" "quarantined"
  in
  match Durable.open_existing dir with
  | None -> Alcotest.fail "durable run left no manifest"
  | Some d -> (
      match Durable.load_latest d with
      | Ok (_, txns, _) -> (txns, quarantined)
      | Error e -> Alcotest.fail ("unreadable journal: " ^ e))

let test_equiv_wal () =
  let serial, quarantined = durable_wal () in
  let ops txns = List.length (List.concat txns) in
  checkb "documents were quarantined" true (quarantined > 0);
  checkb "ops were journaled" true (ops serial > 0);
  List.iter
    (fun (label, axis) ->
      let par, _ =
        durable_wal ~parallel:(parallel ~domains:2 ~shards:2 axis) ()
      in
      checki (label ^ ": transactions") (List.length serial) (List.length par);
      checki (label ^ ": ops") (ops serial) (ops par);
      List.iteri
        (fun i (s, p) ->
          if s <> p then
            Alcotest.failf "%s: transaction %d differs (%d vs %d ops)" label i
              (List.length s) (List.length p))
        (List.combine serial par))
    [ ("docs", Partition.Split_documents);
      ("subs", Partition.Split_subscriptions) ]

(* Randomized sweep over the configuration space: any (domains,
   shards, axis, steal, faults) must reproduce the serial multiset. *)
let qcheck_equiv =
  let gen =
    QCheck.make
      ~print:(fun (d, s, ax, steal, fault) ->
        Printf.sprintf "domains=%d shards=%d axis=%s steal=%b fault=%b" d s
          (match ax with
          | Partition.Split_documents -> "docs"
          | Partition.Split_subscriptions -> "subs")
          steal fault)
      QCheck.Gen.(
        let* d = int_range 2 4 in
        let* s = int_range 1 4 in
        let* ax = oneofl [ Partition.Split_documents; Partition.Split_subscriptions ] in
        let* steal = bool in
        let* fault = bool in
        return (d, s, ax, steal, fault))
  in
  QCheck.Test.make ~name:"parallel = serial for any configuration" ~count:8 gen
    (fun (domains, shards, axis, steal, fault) ->
      let serial = Lazy.force serial_baseline in
      let p =
        run_workload ~rounds:3
          ?fault_plan:(if fault then Some [ ("worker", 0.3) ] else None)
          ~parallel:(parallel ~steal ~domains ~shards axis)
          ()
      in
      serial.notifs = p.notifs && serial.deliveries = p.deliveries)

(* ------------------------------------------------------------------ *)
(* Fan-out and tracing across domains *)

(* Per-axis fan-out: on the document axis each alert visits one shard,
   on the subscription axis every shard. *)
let test_fanout_per_axis () =
  let visits run =
    Obs.Snapshot.counter_value run.snap ~stage:"bus" "shard_inbox_pushed"
  in
  let docs =
    run_workload ~rounds:2
      ~parallel:(parallel ~domains:2 ~shards:3 Partition.Split_documents)
      ()
  in
  checkb "alerts were sent" true (docs.stats.Xyleme.alerts_sent > 0);
  checki "docs axis: one shard visit per alert" docs.stats.Xyleme.alerts_sent
    (visits docs);
  let subs =
    run_workload ~rounds:2
      ~parallel:(parallel ~domains:2 ~shards:3 Partition.Split_subscriptions)
      ()
  in
  checki "subs axis: every shard visited per alert"
    (3 * subs.stats.Xyleme.alerts_sent)
    (visits subs)

(* A sampled document's trace context rides its alert through the
   shard inboxes into shard domains: the queue wait ([bus/wait]) and
   the match ([mqp/match]) recorded there must land in that
   document's own trace — one connected trace per sampled document,
   no orphans and no stray traces.  Stealing is off because a stolen
   message skips its queue-wait span. *)
let test_trace_propagation () =
  List.iter
    (fun (label, axis) ->
      let sink, _ = Sink.memory () in
      let t, web =
        make_system ~sink ~obs:(Obs.create ())
          ~parallel:(parallel ~steal:false ~domains:2 ~shards:3 axis)
          ()
      in
      let tracer = Trace.create ~capacity:64 ~seed:5 () in
      let sampled = ref [] in
      let trace url =
        if List.length !sampled < 6 && Hashtbl.hash url mod 3 = 0 then begin
          let ctx = Trace.start_always tracer ~root:url in
          sampled := (url, Trace.trace_id ctx) :: !sampled;
          Some ctx
        end
        else None
      in
      Xyleme.ingest_batch t (fetch_batch ~trace web);
      let n = List.length !sampled in
      checkb (label ^ ": documents sampled") true (n > 0);
      checki (label ^ ": every sampled document started a trace") n
        (Trace.started tracer);
      checki (label ^ ": every trace completed, no orphans") n
        (Trace.completed tracer);
      let traces = Trace.traces tracer in
      Alcotest.(check (list int))
        (label ^ ": trace ids are exactly the sampled ones")
        (List.sort compare (List.map snd !sampled))
        (List.sort compare (List.map (fun tr -> tr.Trace.tr_id) traces));
      List.iter
        (fun tr ->
          let spans stage name =
            List.length
              (List.filter
                 (fun sp -> sp.Trace.sp_stage = stage && sp.Trace.sp_name = name)
                 tr.Trace.tr_spans)
          in
          let root = label ^ ": " ^ tr.Trace.tr_root in
          checkb (root ^ ": root is the sampled document") true
            (List.mem_assoc tr.Trace.tr_root !sampled);
          checkb (root ^ ": shard queue wait recorded") true
            (spans "bus" "wait" > 0);
          checki (root ^ ": one match span per shard visit")
            (match axis with
            | Partition.Split_documents -> 1
            | Partition.Split_subscriptions -> 3)
            (spans "mqp" "match"))
        traces)
    [ ("docs", Partition.Split_documents);
      ("subs", Partition.Split_subscriptions) ]

(* ------------------------------------------------------------------ *)
(* Configuration validation *)

(* A non-positive shard count used to pass [Xyleme.create] and crash
   at the first parallel batch; every install point now rejects it. *)
let test_invalid_config () =
  let bad = parallel ~domains:2 ~shards:0 Partition.Split_documents in
  let rejects label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (label ^ ": shards = 0 accepted")
  in
  rejects "create" (fun () -> ignore (Xyleme.create ~parallel:bad ()));
  rejects "restore" (fun () ->
      ignore (Xyleme.restore ~parallel:bad ~dir:"/nonexistent" ()));
  let t = Xyleme.create () in
  rejects "set_parallel" (fun () -> Xyleme.set_parallel t bad);
  checkb "config in force unchanged" true
    (Xyleme.parallel_config t = Parallel.default_config);
  rejects "domains = 0" (fun () ->
      Parallel.validate { Parallel.default_config with domains = 0 });
  rejects "capacity = 0" (fun () ->
      Parallel.validate { Parallel.default_config with capacity = 0 })

(* ------------------------------------------------------------------ *)
(* Work stealing under forced skew *)

(* Every document is crafted to hash to shard 0 of 2, so shard 1 gets
   work only by stealing; with hundreds of queued items the idle
   shard's poll loop must rob the victim at least once. *)
let test_steal_under_skew () =
  let skewed_urls =
    let rec collect i acc n =
      if n = 0 then List.rev acc
      else
        let url = Printf.sprintf "http://skew.example.org/page-%d.xml" i in
        if Partition.slot_of_url ~partitions:2 url = 0 then
          collect (i + 1) (url :: acc) (n - 1)
        else collect (i + 1) acc n
    in
    collect 0 [] 300
  in
  let attempt () =
    let sink, _ = Sink.memory () in
    let obs = Obs.create () in
    let t =
      Xyleme.create ~seed:3 ~sink ~obs
        ~parallel:
          (parallel ~domains:2 ~shards:2 Partition.Split_documents)
        ()
    in
    (match
       Xyleme.subscribe t ~owner:"skew"
         ~text:
           {|subscription Skew
monitoring
where self contains "payload" and URL extends "http://skew.example.org/"
report when count > 500 atmost weekly|}
     with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Xy_submgr.Manager.error_to_string e));
    let docs =
      List.map
        (fun url ->
          { Xyleme.bd_url = url;
            bd_content = Some "<page><p>payload one</p></page>";
            bd_kind = Loader.Xml; bd_trace = None; bd_birth = None })
        skewed_urls
    in
    Xyleme.ingest_batch t docs;
    Obs.Counter.value (Obs.counter obs ~stage:"bus" "steals")
  in
  (* Stealing is real but scheduling-dependent; retry a couple of
     times before calling it broken. *)
  let rec try_n n =
    let steals = attempt () in
    if steals > 0 then steals else if n > 1 then try_n (n - 1) else steals
  in
  checkb "idle shard stole from the skewed one" true (try_n 3 > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "primitives",
        [
          Alcotest.test_case "bus try_pop/drained" `Quick test_bus_try_pop;
          Alcotest.test_case "bus steal_half" `Quick test_bus_steal_half;
          Alcotest.test_case "padded counters" `Quick test_pad;
          Alcotest.test_case "wall timers idempotent" `Quick test_wall_idempotent;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "document axis" `Quick test_equiv_docs_axis;
          Alcotest.test_case "subscription axis" `Quick test_equiv_subs_axis;
          Alcotest.test_case "aes-compact matcher" `Quick test_equiv_compact;
          Alcotest.test_case "worker deaths" `Quick test_equiv_worker_deaths;
          Alcotest.test_case "durable wal" `Quick test_equiv_wal;
          QCheck_alcotest.to_alcotest qcheck_equiv;
        ] );
      ( "fan-out",
        [ Alcotest.test_case "shard visits per axis" `Quick test_fanout_per_axis ] );
      ( "tracing",
        [ Alcotest.test_case "cross-domain propagation" `Quick
            test_trace_propagation ] );
      ( "config",
        [ Alcotest.test_case "invalid shard count rejected" `Quick
            test_invalid_config ] );
      ( "stealing",
        [ Alcotest.test_case "forced skew" `Quick test_steal_under_skew ] );
    ]
