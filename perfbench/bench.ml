(* End-to-end and per-layer benchmark of the monitoring pipeline.

     bench.exe --workload crawl|crawl-par2|subs-churn --seed N
               --seconds S --trace 0|1 [--rev R] [--src H]

   Each invocation builds its inputs from the seed (a synthetic web
   and a subscription base), sets the system up several times (the
   median is [setup_s]), then steps it for [--seconds] of wall time:
   one step is [advance] one virtual hour + [crawl_step] + that
   step's wire churn.  The load is closed-loop from this one process.

   With [--trace 0] the steps go through the product API untraced and
   the last line carries the end-to-end metrics.  With [--trace 1] the
   same workload is driven with a span around every call the
   benchmark makes into a layer; the per-layer metrics come from those
   spans (and, where a layer is only reachable through a facade call,
   from the library's own obs registry), and an untraced reference
   run of the same steps gives the wall the spans are compared with.

   The outputs are checked in the same run; a mismatch exits 1. *)

module X = Xy_system.Xyleme
module Parallel = Xy_system.Parallel
module Distributed = Xy_system.Distributed
module Web = Xy_crawler.Synthetic_web
module Crawler = Xy_crawler.Crawler
module Fetch_queue = Xy_crawler.Fetch_queue
module Loader = Xy_warehouse.Loader
module Store = Xy_warehouse.Store
module Meta = Xy_warehouse.Meta
module Chain = Xy_alerters.Chain
module Alert = Xy_alerters.Alert
module Mqp = Xy_core.Mqp
module Reporter = Xy_reporter.Reporter
module Sink = Xy_reporter.Sink
module Trigger = Xy_trigger.Trigger_engine
module Manager = Xy_submgr.Manager
module Client = Xy_serve.Client
module Serve = Xy_serve.Serve
module Obs = Xy_obs.Obs
module Clock = Xy_util.Clock
module Samples = Calc.Samples

let now = Unix.gettimeofday
let step_seconds = 3600.

(* One virtual day of steps runs before the timer starts: the first
   fetch of every page is a cheap [New] load, so the first day is not
   the steady state.  The measured phase then runs whole days. *)
let day = 24

(* The first [checked_steps] steps of every run (the warm-up day and
   the first measured day) are digested: every report condition fires
   at least daily. *)
let checked_steps = 2 * day

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 1)
    fmt

(* ------------------------------------------------------------------ *)
(* Workloads *)

type spec = {
  name : string;
  sites : int;
  pages_per_site : int;
  subscriptions : int;
  fetch_limit : int;  (** due pages pulled per virtual hour *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  parallel : Parallel.config option;
  wire : bool;  (** durable directory + serving surface + wire client *)
  churn : int;  (** unsubscribe/subscribe pairs per step, over the wire *)
  checkpoint_every : int;  (** steps *)
  continuous : int;  (** notification-triggered continuous delta queries *)
}

let crawl =
  {
    name = "crawl";
    sites = 1_000;
    pages_per_site = 6;
    subscriptions = 5_000;
    fetch_limit = 200;
    setups = 5;
    parallel = None;
    wire = false;
    churn = 0;
    checkpoint_every = 0;
    continuous = 0;
  }

let crawl_par2 =
  {
    crawl with
    name = "crawl-par2";
    parallel =
      Some
        {
          Parallel.default_config with
          Parallel.domains = 2;
          shards = 2;
          axis = Distributed.Split_documents;
          steal = true;
        };
  }

let subs_churn =
  {
    name = "subs-churn";
    sites = 2_000;
    pages_per_site = 2;
    subscriptions = 12_000;
    fetch_limit = 200;
    setups = 3;
    parallel = None;
    wire = true;
    churn = 1;
    checkpoint_every = 8;
    continuous = 3;
  }

let spec_of_name = function
  | "crawl" -> crawl
  | "crawl-par2" -> crawl_par2
  | "subs-churn" -> subs_churn
  | other -> fail "unknown workload %S (crawl, crawl-par2, subs-churn)" other

let words_a = [| "camera"; "television"; "laptop"; "speaker" |]
let words_b = [| "wireless"; "portable"; "digital"; "stereo" |]
let site_url site = Printf.sprintf "http://site%d.example.org/" site

(* The tbl-e2e four-kind mix (URL watchers, new-product watchers,
   a domain-wide price watcher, content watchers), with report
   conditions that fire at least daily so reporter buffers stay
   bounded however long the run. *)
let crawl_text rng ~sites i =
  let site = Random.State.int rng sites in
  let word a = a.(Random.State.int rng (Array.length a)) in
  match i mod 4 with
  | 0 ->
      Printf.sprintf
        "subscription P%d\nmonitoring\nselect <UpdatedPage url=URL/>\nwhere URL extends %S and modified self\nreport when count > 20 or daily"
        i (site_url site)
  | 1 ->
      Printf.sprintf
        "subscription N%d\nmonitoring\nwhere new self\\\\product contains %S and URL extends %S\nreport when count > 20 or daily"
        i (word words_a) (site_url site)
  | 2 ->
      Printf.sprintf
        "subscription D%d\nmonitoring\nwhere domain = \"commerce\" and modified self and self\\\\price\nreport when count > 50 or daily"
        i
  | _ ->
      Printf.sprintf
        "subscription W%d\nmonitoring\nwhere self contains %S and URL extends %S\nreport when count > 50 or daily"
        i (word words_b) (site_url site)

(* Selective subscriptions: one site each, so a document matches the
   handful watching its site. *)
let churn_text rng ~sites name =
  let site = Random.State.int rng sites in
  let word a = a.(Random.State.int rng (Array.length a)) in
  match Random.State.int rng 3 with
  | 0 ->
      Printf.sprintf
        "subscription %s\nmonitoring\nselect <UpdatedPage url=URL/>\nwhere URL extends %S and modified self\nreport when count > 10 or daily"
        name (site_url site)
  | 1 ->
      Printf.sprintf
        "subscription %s\nmonitoring\nwhere self contains %S and URL extends %S\nreport when count > 10 or daily"
        name (word words_b) (site_url site)
  | _ ->
      Printf.sprintf
        "subscription %s\nmonitoring\nwhere new self\\\\product contains %S and URL extends %S\nreport when count > 10 or daily"
        name (word words_a) (site_url site)

(* The system's own health document changes at every self-monitor
   injection, so continuous queries triggered by it run at a fixed
   virtual rate on every seed (each run re-reads the whole warehouse
   view, which is what makes continuous queries expensive). *)
let self_monitor_period = 12. *. 3600.

(* WAL group-commit batch of the durable workload: each fsync on this
   kind of shared virtual disk takes 0.4-1.5 ms and varies from minute
   to minute, so the default batch of 32 (about 13 fsyncs a step) made
   the step time follow the disk rather than the program. *)
let sync_every = 256

let continuous_text rng name =
  let word = words_b.(Random.State.int rng (Array.length words_b)) in
  Printf.sprintf
    "subscription %s\nmonitoring\nselect <Touched url=URL/>\nwhere URL = %S and modified self\ncontinuous delta %sView\nselect p/name\nfrom commerce/catalog c, c/product p\nwhere p/desc contains %S\nwhen %s.Touched\nreport when immediate"
    name Xy_system.Self_monitor.health_url name word name

let base_texts spec ~seed =
  let rng = Random.State.make [| seed; 17 |] in
  if spec.wire then
    List.init spec.subscriptions (fun i ->
        if i < spec.continuous then
          continuous_text rng (Printf.sprintf "C%d" i)
        else churn_text rng ~sites:spec.sites (Printf.sprintf "S%d" i))
  else List.init spec.subscriptions (crawl_text rng ~sites:spec.sites)

(* ------------------------------------------------------------------ *)
(* The sink: counts every delivery, keeps the checked prefix's
   deliveries for the digest, and (wire workload) stamps each seq with
   the wall time it left the system. *)

type tally = {
  mutable recording : bool;
  mutable recorded : Sink.delivery list;  (** this step's, newest first *)
  mutable digest : string;  (** running digest of the recorded steps *)
  mutable delivered : int;
  stamped : bool;
  stamps : (int, float * string * float) Hashtbl.t;
      (** seq -> wall stamp, subscription, virtual time *)
}

let new_tally ~stamped =
  {
    recording = true;
    recorded = [];
    digest = "";
    delivered = 0;
    stamped;
    stamps = Hashtbl.create 1024;
  }

let sink_of tally =
  {
    Sink.deliver =
      (fun d ->
        tally.delivered <- tally.delivered + 1;
        if tally.stamped then
          Hashtbl.replace tally.stamps d.Sink.seq
            (now (), d.Sink.subscription, d.Sink.at);
        if tally.recording then tally.recorded <- d :: tally.recorded);
  }

(* ------------------------------------------------------------------ *)
(* Layers: the raw span durations of each layer the benchmark calls
   into. *)

type layer = Samples.t

type layers = {
  web : layer;  (** Synthetic_web.evolve: the load generator *)
  clock : layer;
  crawler : layer;
  warehouse : layer;
  alerters : layer;
  matching : layer;
  dispatch : layer;
  trigger_tick : layer;
  reporter_tick : layer;
  parallel : layer;
  advance : layer;  (** facade advance (wire workload) *)
  crawl_step : layer;  (** facade crawl_step (wire workload) *)
  checkpoint : layer;
  pump : layer;  (** Xyleme.serve_pump: wire mutations and acks *)
  wire_wait : layer;  (** waiting on the client and server threads *)
  submgr : layer;
  subscribe : layer;  (** the whole Xyleme.subscribe-equivalent call *)
}

let new_layers () =
  {
    web = Samples.create ();
    clock = Samples.create ();
    crawler = Samples.create ();
    warehouse = Samples.create ();
    alerters = Samples.create ();
    matching = Samples.create ();
    dispatch = Samples.create ();
    trigger_tick = Samples.create ();
    reporter_tick = Samples.create ();
    parallel = Samples.create ();
    advance = Samples.create ();
    crawl_step = Samples.create ();
    checkpoint = Samples.create ();
    pump = Samples.create ();
    wire_wait = Samples.create ();
    submgr = Samples.create ();
    subscribe = Samples.create ();
  }

(* Layers whose spans tile the measured steps: their sum is what the
   untraced wall is compared with.  [submgr]/[subscribe] are set-up
   spans; the probe ticks of the wire workload are estimates inside
   [advance] and are left out. *)
let step_layers l =
  [
    l.web; l.clock; l.crawler; l.warehouse; l.alerters; l.matching; l.dispatch;
    l.trigger_tick; l.reporter_tick; l.parallel; l.advance; l.crawl_step;
    l.checkpoint; l.pump; l.wire_wait;
  ]

let span l f =
  let t0 = now () in
  let r = f () in
  Samples.add l (now () -. t0);
  r

let busy = Samples.sum

(* ------------------------------------------------------------------ *)
(* The wire: one supervised client, owning every subscription of the
   wire workload, and one churn thread issuing its requests.  The
   pipeline thread pumps wire mutations while it waits for the churn
   thread, so every step's churn lands before the next step. *)

let client_id = "bench"
let poll = 0.0001

type op = Sub of string | Unsub of string

type wire = {
  client : Client.t;
  lock : Mutex.t;
  cond : Condition.t;
  mutable job : op list option;
  mutable busy : bool;
  mutable quit : bool;
  mutable timing : bool;  (** record verdict latencies *)
  verdicts : Samples.t;
  mutable wire_failed : int;
  mutable wire_ops : int;
  mutable names : string list;  (** subscribed by the last job *)
  received : (int, float * string * float) Hashtbl.t;
      (** seq -> client wall stamp, subscription, virtual time *)
  mutable worker : Thread.t option;
}

let churn_loop w =
  let rec loop () =
    Mutex.lock w.lock;
    while w.job = None && not w.quit do
      Condition.wait w.cond w.lock
    done;
    let job = w.job in
    Mutex.unlock w.lock;
    match job with
    | None -> ()
    | Some ops ->
        let names = ref [] in
        List.iter
          (fun op ->
            let t0 = now () in
            let result =
              match op with
              | Sub text -> Client.subscribe w.client ~owner:client_id ~text
              | Unsub name -> Client.unsubscribe w.client name
            in
            let dt = now () -. t0 in
            Mutex.lock w.lock;
            w.wire_ops <- w.wire_ops + 1;
            if w.timing then Samples.add w.verdicts dt;
            (match (op, result) with
            | Sub _, Ok name -> names := name :: !names
            | Unsub _, Ok _ -> ()
            | _, Error e ->
                w.wire_failed <- w.wire_failed + 1;
                prerr_endline ("perfbench: wire op failed: " ^ e));
            Mutex.unlock w.lock)
          ops;
        Mutex.lock w.lock;
        w.job <- None;
        w.names <- List.rev !names;
        w.busy <- false;
        Mutex.unlock w.lock;
        loop ()
  in
  loop ()

let connect_wire x =
  let port = Serve.port (Option.get (X.serve x)) in
  let received = Hashtbl.create 1024 in
  let lock = Mutex.create () in
  let on_report (r : Client.report) =
    Mutex.lock lock;
    if not (Hashtbl.mem received r.Client.seq) then
      Hashtbl.replace received r.Client.seq (now (), r.Client.subscription, r.Client.at);
    Mutex.unlock lock
  in
  let client =
    Client.connect ~on_report (Client.config ~port ~id:client_id ~ping_interval:0. ~pong_deadline:0. ())
  in
  if not (Client.wait_connected ~timeout:10. client) then fail "wire client did not connect";
  let w =
    {
      client;
      lock;
      cond = Condition.create ();
      job = None;
      busy = false;
      quit = false;
      timing = false;
      verdicts = Samples.create ();
      wire_failed = 0;
      wire_ops = 0;
      names = [];
      received;
      worker = None;
    }
  in
  w.worker <- Some (Thread.create churn_loop w);
  w

let close_wire w =
  Mutex.lock w.lock;
  w.quit <- true;
  Condition.broadcast w.cond;
  Mutex.unlock w.lock;
  Option.iter Thread.join w.worker;
  Client.close w.client

(* Hand [ops] to the churn thread; [finish_ops] pumps the server until
   it is done and returns the names the job subscribed. *)
let start_ops w ops =
  Mutex.lock w.lock;
  w.job <- Some ops;
  w.busy <- true;
  Condition.signal w.cond;
  Mutex.unlock w.lock

(* Pump the server until [ready ()] or [deadline] seconds, blocking
   between pumps so the client and connection threads get the
   runtime.  Traced, the pumps are [system.pump] spans and the rest of
   the wait is [wire.wait]. *)
let pump_until ?layers x ~deadline ready =
  let t0 = now () in
  let pumped = ref 0. in
  let pump () =
    let p0 = now () in
    ignore (X.serve_pump x);
    let dt = now () -. p0 in
    pumped := !pumped +. dt;
    Option.iter (fun l -> Samples.add l.pump dt) layers
  in
  while (not (ready ())) && now () -. t0 < deadline do
    pump ();
    Thread.delay poll
  done;
  pump ();
  Option.iter (fun l -> Samples.add l.wire_wait (now () -. t0 -. !pumped)) layers

let locked w f =
  Mutex.lock w.lock;
  let r = f () in
  Mutex.unlock w.lock;
  r

(* Wait for the churn thread's job; the names it subscribed. *)
let finish_ops ?layers x w =
  pump_until ?layers x ~deadline:infinity (fun () -> locked w (fun () -> not w.busy));
  w.names

(* Wait (pumping acks) until the client holds every report delivered
   so far; gives up after [deadline] seconds. *)
let await_reports ?layers x w tally ~deadline =
  pump_until ?layers x ~deadline (fun () ->
      locked w (fun () -> Hashtbl.length w.received) >= tally.delivered)

(* ------------------------------------------------------------------ *)
(* A system under test *)

type sut = {
  x : X.t;
  tally : tally;
  dir : string option;
  wire : wire option;
  live : string array;  (** live subscription names, wire workload *)
  crawler : Crawler.t option;  (** the traced run's own crawler *)
  mutable next_name : int;
  rng : Random.State.t;  (** churn choices *)
  subscribe_lat : Samples.t;  (** in-process subscribe latencies *)
  mutable rejected : int;
  mutable wal_total : int;  (** WAL bytes written by the measured steps *)
}

let work_root = "perfbench/.work"

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Bytes the WAL segments ([gen-N.wal], [gen-N.wal.K]) hold. *)
let wal_bytes dir =
  Array.fold_left
    (fun acc f ->
      if List.mem "wal" (String.split_on_char '.' f) then
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Filename.concat work_root (Printf.sprintf "run-%d-%d" (Unix.getpid ()) !n) in
    remove_tree dir;
    dir

(* The traced set-up of a non-durable system replaces
   [Xyleme.subscribe] by its two halves, the manager call and the
   refresh-statement re-scan, which is all it does there.  A durable
   system also commits inside the facade, so it keeps the whole call. *)
let subscribe_in_process ?layers ~split ~owner sut text =
  let t0 = now () in
  let result =
    match layers with
    | Some l when split ->
        let r = span l.submgr (fun () -> Manager.subscribe (X.manager sut.x) ~owner ~text) in
        (match r with
        | Ok _ ->
            List.iter
              (fun (url, period) -> Fetch_queue.boost (X.queue sut.x) ~url ~period)
              (Manager.refresh_statements (X.manager sut.x))
        | Error _ -> ());
        r
    | _ -> X.subscribe sut.x ~owner ~text
  in
  let dt = now () -. t0 in
  Samples.add sut.subscribe_lat dt;
  Option.iter (fun l -> Samples.add l.subscribe dt) layers;
  match result with
  | Ok name -> Some name
  | Error e ->
      sut.rejected <- sut.rejected + 1;
      prerr_endline ("perfbench: subscription rejected: " ^ Manager.error_to_string e);
      None

(* Inputs are built before the timer starts; [setup] times create →
   ready. *)
let setup ?layers spec ~seed ~parallel =
  let web = Web.generate ~seed ~sites:spec.sites ~pages_per_site:spec.pages_per_site () in
  let texts = base_texts spec ~seed in
  let tally = new_tally ~stamped:spec.wire in
  let dir = if spec.wire then Some (fresh_dir ()) else None in
  let t0 = now () in
  let x =
    X.create ~seed:(seed + 1) ~web ~sink:(sink_of tally) ?parallel ?durable_dir:dir
      ?serve_port:(if spec.wire then Some 0 else None)
      ?self_monitor_period:(if spec.continuous > 0 then Some self_monitor_period else None)
      ?sync_every:(if spec.wire then Some sync_every else None)
      ()
  in
  let crawler =
    match layers with
    | Some _ when not spec.wire ->
        Some
          (Crawler.create ~obs:(X.obs x) ~clock:(X.clock x) ~faults:(X.faults x) ~web
             ~queue:(X.queue x) ())
    | _ -> None
  in
  let sut =
    {
      x;
      tally;
      dir;
      wire = None;
      live = [||];
      crawler;
      next_name = spec.subscriptions;
      rng = Random.State.make [| seed; 29 |];
      subscribe_lat = Samples.create ();
      rejected = 0;
      wal_total = 0;
    }
  in
  (* The wire client says HELLO first, so the reports of the
     subscriptions it owns stream to it.  The base itself is
     registered in process: a wire SUBSCRIBE waits out the client's
     50 ms read timeout, which would make a 10^4 base take minutes. *)
  let wire = if spec.wire then Some (connect_wire x) else None in
  let owner = if spec.wire then client_id else "u" in
  let names = List.filter_map (subscribe_in_process ?layers ~split:(not spec.wire) ~owner sut) texts in
  let sut = { sut with wire; live = Array.of_list names } in
  (match crawler with Some c -> Crawler.discover c | None -> X.discover x);
  if spec.wire then ignore (X.checkpoint x);
  (sut, now () -. t0)

let teardown sut =
  Option.iter close_wire sut.wire;
  X.stop_serve ~drain:0. sut.x;
  Option.iter remove_tree sut.dir

(* ------------------------------------------------------------------ *)
(* Steps *)

let kind_of = function
  | Some Web.Xml_page -> Loader.Xml
  | Some Web.Html_page -> Loader.Html
  | None -> Loader.Auto

(* [Xyleme.advance] on a system without durability, serving surface,
   self-monitoring or SLOs, one layer call at a time. *)
let traced_advance (l : layers) sut crawler =
  let x = sut.x in
  span l.clock (fun () -> Clock.advance (X.clock x) step_seconds);
  ignore (span l.web (fun () -> Web.evolve (X.web x) ~elapsed:step_seconds));
  span l.crawler (fun () ->
      Crawler.discover crawler;
      Crawler.update_watermark crawler);
  span l.trigger_tick (fun () -> Trigger.tick (X.trigger x));
  span l.reporter_tick (fun () -> Reporter.tick (X.reporter x))

let to_mqp_alert (a : Alert.t) ~birth =
  { Mqp.url = a.Alert.url; events = a.Alert.events; payload = Alert.payload_string a; trace = None; birth }

let traced_match (l : layers) x alert =
  let t0 = now () in
  let matched = Mqp.match_readonly (X.mqp x) alert.Mqp.events in
  let latency = now () -. t0 in
  Samples.add l.matching latency;
  ignore (span l.dispatch (fun () -> Mqp.dispatch_matched (X.mqp x) alert ~matched ~latency))

(* [Xyleme.crawl_step], one layer call at a time: serially through
   loader, alerters and the split MQP, or through [ingest_batch] on a
   parallel system.  Returns the documents fetched. *)
let traced_crawl_step (l : layers) spec sut crawler =
  let x = sut.x in
  let store = X.store x in
  let urls = span l.crawler (fun () -> Fetch_queue.pop_due (X.queue x) ~limit:spec.fetch_limit) in
  let fetches =
    List.filter_map (fun url -> span l.crawler (fun () -> Crawler.fetch_one crawler ~url)) urls
  in
  if spec.parallel <> None then begin
    let version url = Option.map (fun e -> e.Store.meta.Meta.version) (Store.find store url) in
    let before = List.map (fun f -> version f.Crawler.url) fetches in
    let docs =
      List.map
        (fun f ->
          {
            X.bd_url = f.Crawler.url;
            bd_content = f.Crawler.content;
            bd_kind = kind_of f.Crawler.kind;
            bd_trace = None;
            bd_birth = f.Crawler.birth;
          })
        fetches
    in
    span l.parallel (fun () -> X.ingest_batch x docs);
    span l.crawler (fun () ->
        List.iter2
          (fun f v ->
            if f.Crawler.content <> None then
              Crawler.conclude crawler ~url:f.Crawler.url ~changed:(version f.Crawler.url <> v))
          fetches before)
  end
  else begin
    (* the DOCID pre-pass, in batch order, as [ingest_batch] does it *)
    span l.warehouse (fun () ->
        List.iter
          (fun f ->
            if f.Crawler.content <> None && not (Store.has_docid store ~url:f.Crawler.url) then
              ignore (Store.allocate_docid store ~url:f.Crawler.url))
          fetches);
    List.iter
      (fun f ->
        let url = f.Crawler.url in
        match f.Crawler.content with
        | None -> (
            let tree = Option.bind (Store.find store url) (fun e -> e.Store.tree) in
            match span l.warehouse (fun () -> Loader.delete (X.loader x) ~url) with
            | None -> ()
            | Some meta -> (
                match
                  span l.alerters (fun () ->
                      Option.map (to_mqp_alert ~birth:None)
                        (Chain.process_deleted (X.chain x) ~meta ~tree))
                with
                | None -> ()
                | Some alert -> traced_match l x alert))
        | Some content ->
            let t0 = now () in
            let loaded =
              match Loader.load (X.loader x) ~url ~content ~kind:(kind_of f.Crawler.kind) with
              | result -> Some result
              | exception Loader.Rejected _ -> None
            in
            Samples.add l.warehouse (now () -. t0);
            let changed =
              match loaded with
              | None ->
                  Obs.Counter.incr (Obs.counter (X.obs x) ~stage:"fault" "quarantined");
                  true
              | Some result ->
                  (match
                     span l.alerters (fun () ->
                         Option.map (to_mqp_alert ~birth:f.Crawler.birth)
                           (Chain.process (X.chain x) ~result ~content))
                   with
                  | None -> ()
                  | Some alert -> traced_match l x alert);
                  result.Loader.status <> Loader.Unchanged
            in
            span l.crawler (fun () -> Crawler.conclude crawler ~url ~changed))
      fetches
  end;
  List.length fetches

(* One step of the wire workload's churn: [churn] live subscriptions
   leave and as many new ones arrive, all over the wire. *)
let churn_ops spec sut =
  let ops = ref [] in
  let leaving = ref [] in
  for _ = 1 to spec.churn do
    let slot = spec.continuous + Random.State.int sut.rng (Array.length sut.live - spec.continuous) in
    if not (List.mem slot !leaving) then begin
      leaving := slot :: !leaving;
      ops := Unsub sut.live.(slot) :: !ops
    end
  done;
  let arrivals =
    List.map
      (fun _ ->
        let name = Printf.sprintf "K%d" sut.next_name in
        sut.next_name <- sut.next_name + 1;
        Sub (churn_text sut.rng ~sites:spec.sites name))
      !leaving
  in
  (List.rev !leaving, List.rev !ops @ arrivals)

type step_mode = Facade | Traced of layers

(* Probe ticks: on the wire workload the reporter and trigger ticks
   run inside [Xyleme.advance]; a second tick at the same virtual time
   re-does their table scan with nothing left to fire, which is the
   estimate reported for those layers. *)
let probe_ticks (l : layers) x =
  span l.trigger_tick (fun () -> Trigger.tick (X.trigger x));
  span l.reporter_tick (fun () -> Reporter.tick (X.reporter x))

(* Likewise the web's evolve: a twin of the system's web, generated
   from the same seed and evolved in lockstep, costs what the evolve
   inside [Xyleme.advance] costs. *)
type probes = { p_layers : layers; twin : Web.t }

(* One step; returns the documents fetched. *)
let step mode spec sut ~index ~probes =
  let x = sut.x in
  (* the churn runs beside the crawl: its requests reach the server
     while crawl_step runs, and land at the pumps that follow it *)
  let start_churn () =
    match sut.wire with
    | None -> []
    | Some w ->
        let leaving, ops = churn_ops spec sut in
        start_ops w ops;
        leaving
  in
  let leaving = ref [] in
  let fetched =
    match (mode, sut.crawler) with
    | Traced l, Some crawler ->
        traced_advance l sut crawler;
        traced_crawl_step l spec sut crawler
    | Traced l, None ->
        span l.advance (fun () -> X.advance x ~seconds:step_seconds);
        Option.iter
          (fun p ->
            probe_ticks p.p_layers x;
            ignore (span p.p_layers.web (fun () -> Web.evolve p.twin ~elapsed:step_seconds)))
          probes;
        leaving := start_churn ();
        span l.crawl_step (fun () -> X.crawl_step x ~limit:spec.fetch_limit)
    | Facade, _ ->
        X.advance x ~seconds:step_seconds;
        leaving := start_churn ();
        X.crawl_step x ~limit:spec.fetch_limit
  in
  let layers = match mode with Traced l -> Some l | Facade -> None in
  (match sut.wire with
  | None -> ()
  | Some w ->
      let names = finish_ops ?layers x w in
      (* arrivals take the slots the leavers freed *)
      let rec refill slots names =
        match (slots, names) with
        | slot :: slots, name :: names ->
            sut.live.(slot) <- name;
            refill slots names
        | _ -> ()
      in
      refill !leaving names;
      if spec.checkpoint_every > 0 && index mod spec.checkpoint_every = 0 then begin
        Option.iter (fun d -> sut.wal_total <- sut.wal_total + wal_bytes d) sut.dir;
        match layers with
        | None -> ignore (X.checkpoint x)
        | Some l -> ignore (span l.checkpoint (fun () -> X.checkpoint x))
      end;
      await_reports ?layers x w sut.tally ~deadline:10.);
  fetched

(* ------------------------------------------------------------------ *)
(* A measured run *)

type run = {
  steps : int;
  docs : int;
  wall : float;  (** summed step wall *)
  prefix_wall : float;  (** the same, over the first measured day *)
  step_times : float array;
  prefix_digest : string;
  total_reports : int;
  notifications : int;
  heap_peak_words : int;
  gc_minor : int;
  gc_major : int;
  gc_minor_words : float;
}

let notifications x = (Reporter.stats (X.reporter x)).Reporter.notifications_received

(* Fold the step's deliveries into the running digest; rendering
   happens here, outside the timed step. *)
let digest_step tally =
  tally.digest <-
    Calc.chain tally.digest
      (List.rev_map
         (fun d ->
           {
             Calc.seq = d.Sink.seq;
             recipient = d.Sink.recipient;
             subscription = d.Sink.subscription;
             at = d.Sink.at;
             body = Xy_xml.Printer.element_to_string d.Sink.report;
           })
         tally.recorded);
  tally.recorded <- []

(* The warm-up day, then measured steps: whole days until [`Seconds s]
   of stepping have elapsed, or exactly [`Steps n].  [on_start] runs
   between the two, when the counters the caller diffs are taken. *)
let measure ?probes ?(on_start = ignore) ?(on_prefix = ignore) mode spec sut ~limit =
  let times = Samples.create () in
  let docs = ref 0 in
  let wall = ref 0. in
  let digest = ref "" in
  let prefix_wall = ref 0. in
  let heap = ref 0 in
  let g0 = ref (Gc.quick_stat ()) in
  let index = ref 0 in
  let measured () = !index - day in
  let continue () =
    !index < day
    || (match limit with
       | `Seconds s -> measured () = 0 || !wall < s || measured () mod day <> 0
       | `Steps n -> measured () < n)
    || !index < checked_steps
  in
  while continue () do
    incr index;
    let t0 = now () in
    let fetched = step mode spec sut ~index:!index ~probes in
    let dt = now () -. t0 in
    if !index > day then begin
      Samples.add times dt;
      wall := !wall +. dt;
      docs := !docs + fetched;
      (* over the first measured day only: a fixed amount of work,
         whatever the machine's speed *)
      if !index <= checked_steps then heap := max !heap (Gc.quick_stat ()).Gc.heap_words
    end;
    if !index <= checked_steps then digest_step sut.tally;
    if !index = checked_steps then begin
      digest := Calc.seal sut.tally.digest ~notifications:(notifications sut.x);
      sut.tally.recording <- false;
      prefix_wall := !wall;
      on_prefix ()
    end;
    if !index = day then begin
      on_start ();
      Gc.compact ();
      g0 := Gc.quick_stat ()
    end
  done;
  let g1 = Gc.quick_stat () in
  {
    steps = measured ();
    docs = !docs;
    wall = !wall;
    prefix_wall = !prefix_wall;
    step_times = Samples.to_array times;
    prefix_digest = !digest;
    total_reports = sut.tally.delivered;
    notifications = notifications sut.x;
    heap_peak_words = !heap;
    gc_minor = g1.Gc.minor_collections - !g0.Gc.minor_collections;
    gc_major = g1.Gc.major_collections - !g0.Gc.major_collections;
    gc_minor_words = g1.Gc.minor_words -. !g0.Gc.minor_words;
  }

(* ------------------------------------------------------------------ *)
(* Output *)

type metric = { mname : string; value : float; unit_ : string; samples : int option }

let m ?samples mname unit_ value = { mname; value; unit_; samples }

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_metric metric =
  Printf.printf "  %-28s %14.6g %-6s%s\n" metric.mname metric.value metric.unit_
    (match metric.samples with Some n -> Printf.sprintf "  (n=%d)" n | None -> "")

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun mt ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.mname (json_float mt.value) mt.unit_)
          metrics))

let ms x = 1000. *. x

let pct_ms name arr p = m ~samples:(Array.length arr) name "ms" (ms (Calc.percentile arr p))

(* ------------------------------------------------------------------ *)
(* Checks *)

let failures = ref []

let check result =
  match result with
  | Ok () -> ()
  | Error e ->
      prerr_endline ("perfbench: CHECK FAILED " ^ e);
      failures := e :: !failures

let check_true ~what b = check (if b then Ok () else Error what)

(* The client's deduplicated reports against what the sink delivered
   to the client's recipient: same seqs, subscriptions and times. *)
let check_wire sut =
  match sut.wire with
  | None -> 0
  | Some w ->
      let key (seq, (_, sub, at)) = Printf.sprintf "%d|%s|%h" seq sub at in
      let keys tbl = List.sort compare (Hashtbl.fold (fun k v acc -> key (k, v) :: acc) tbl []) in
      Mutex.lock w.lock;
      let got = keys w.received in
      let missing =
        Hashtbl.fold
          (fun seq _ n -> if Hashtbl.mem w.received seq then n else n + 1)
          sut.tally.stamps 0
      in
      Mutex.unlock w.lock;
      let sent = keys sut.tally.stamps in
      check
        (Calc.check_equal ~what:"client report set vs sink deliveries"
           (Digest.to_hex (Digest.string (String.concat "\n" got)))
           (Digest.to_hex (Digest.string (String.concat "\n" sent))));
      missing

let deliver_latencies sut ~since =
  match sut.wire with
  | None -> [||]
  | Some w ->
      Mutex.lock w.lock;
      let lat =
        Hashtbl.fold
          (fun seq (sent, _, _) acc ->
            match Hashtbl.find_opt w.received seq with
            | Some (got, _, _) when sent >= since -> (got -. sent) :: acc
            | _ -> acc)
          sut.tally.stamps []
      in
      Mutex.unlock w.lock;
      Array.of_list lat

(* Flush the last group-commit batch (an orderly completion), then
   warm-restart the directory and compare subscription counts. *)
let restore_check spec ~seed sut =
  match sut.dir with
  | None -> 0.
  | Some dir ->
      X.run sut.x ~days:0. ~step:step_seconds ~fetch_limit:spec.fetch_limit;
      let live = Manager.subscription_count (X.manager sut.x) in
      X.stop_serve ~drain:0. sut.x;
      let web = Web.generate ~seed ~sites:spec.sites ~pages_per_site:spec.pages_per_site () in
      let t0 = now () in
      let restored =
        X.restore ~seed:(seed + 1) ~web ~sink:(Sink.null ()) ~serve_port:0 ~sync_every
          ?self_monitor_period:(if spec.continuous > 0 then Some self_monitor_period else None)
          ~dir ()
      in
      let dt = now () -. t0 in
      (match restored with
      | Error e -> check (Error ("restore: " ^ e))
      | Ok (x', info) ->
          X.stop_serve ~drain:0. x';
          check
            (Calc.check_equal ~what:"subscriptions recovered by restore"
               (string_of_int info.X.subscriptions_recovered)
               (string_of_int live)));
      dt

(* ------------------------------------------------------------------ *)

let buffered x =
  List.fold_left
    (fun acc subscription -> acc + Reporter.buffered_count (X.reporter x) ~subscription)
    0
    (Manager.subscription_names (X.manager x))

(* An untraced run of the checked prefix on a fresh system, for the
   output checks and as the wall a traced run's first measured day is
   compared with. *)
let reference spec ~seed =
  let sut, _ = setup spec ~seed ~parallel:spec.parallel in
  let run = measure Facade spec sut ~limit:(`Steps (checked_steps - day)) in
  teardown sut;
  run

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rev = ref "unknown" and src = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "crawl | crawl-par2 | subs-churn");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "stepping time to measure");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--rev", Arg.Set_string rev, "source revision, for the host stamp");
      ("--src", Arg.Set_string src, "source tree hash, for the host stamp");
    ]
    (fun a -> fail "unexpected argument %S" a)
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let spec = spec_of_name !workload in
  let seed = !seed in
  let traced = !trace = 1 in
  if spec.wire then (try Unix.mkdir work_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Printf.printf "host: nproc=%d ocaml=%s rev=%s src=%s workload=%s seed=%d seconds=%g trace=%d\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version !rev !src spec.name seed !seconds
    !trace;
  (* Set up [setups] times; the last system is the one measured. *)
  let layers = if traced then Some (new_layers ()) else None in
  let setup_times = Samples.create () in
  let subscribe_lat = Samples.create () in
  let rec setups i =
    let sut, dt = setup ?layers spec ~seed ~parallel:spec.parallel in
    Samples.add setup_times dt;
    Array.iter (Samples.add subscribe_lat) (Samples.to_array sut.subscribe_lat);
    if i < spec.setups then begin
      teardown sut;
      setups (i + 1)
    end
    else sut
  in
  let sut = setups 1 in
  let setup_s = Calc.median (Samples.to_array setup_times) in
  let x = sut.x in
  let before = ref Obs.Snapshot.empty in
  let buffered_start = ref 0 in
  let started = ref 0. in
  let mode = match layers with Some l -> Traced l | None -> Facade in
  let probes =
    if traced && spec.wire then
      Some
        {
          p_layers = new_layers ();
          twin = Web.generate ~seed ~sites:spec.sites ~pages_per_site:spec.pages_per_site ();
        }
    else None
  in
  (* after the warm-up day: the counters diffed below start here, and
     the warm-up's spans are dropped *)
  let on_start () =
    Option.iter (fun w -> w.timing <- true) sut.wire;
    before := Obs.snapshot (X.obs x);
    buffered_start := buffered x;
    started := now ();
    Option.iter (fun d -> sut.wal_total <- -wal_bytes d) sut.dir;
    Option.iter (fun l -> List.iter (fun layer -> Samples.clear layer) (step_layers l)) layers;
    Option.iter (fun p -> List.iter (fun layer -> Samples.clear layer) (step_layers p.p_layers)) probes
  in
  let prefix_layer_sum = ref nan in
  let on_prefix () =
    Option.iter
      (fun l -> prefix_layer_sum := List.fold_left (fun acc layer -> acc +. busy layer) 0. (step_layers l))
      layers
  in
  let run = measure ?probes ~on_start ~on_prefix mode spec sut ~limit:(`Seconds !seconds) in
  let before = !before and buffered_start = !buffered_start in
  let after = Obs.snapshot (X.obs x) in
  let buffered_end = buffered x in
  let counter stage name =
    float_of_int
      (Obs.Snapshot.counter_value after ~stage name - Obs.Snapshot.counter_value before ~stage name)
  in
  let hist stage name =
    let get s =
      match Obs.Snapshot.find s ~stage name with
      | Some (Obs.Snapshot.Histogram h) -> (h.Obs.Snapshot.count, h.Obs.Snapshot.sum)
      | _ -> (0, 0.)
    in
    let c1, s1 = get after and c0, s0 = get before in
    (float_of_int (c1 - c0), s1 -. s0)
  in
  (* -- wire and durability outcomes, outside the timed steps -- *)
  let missing = check_wire sut in
  let deliver = deliver_latencies sut ~since:!started in
  let wire_ops, wire_failed, client_stats =
    match sut.wire with
    | Some w -> (w.wire_ops, w.wire_failed, Some (Client.stats w.client))
    | None -> (0, 0, None)
  in
  let pending_end = match X.serve x with Some s -> Serve.pending_total s | None -> 0 in
  let verdicts =
    match sut.wire with
    | Some w -> Samples.to_array w.verdicts
    | None -> Samples.to_array subscribe_lat
  in
  let wal =
    match sut.dir with Some d -> float_of_int (sut.wal_total + wal_bytes d) | None -> 0.
  in
  let restore_s = restore_check spec ~seed sut in
  Option.iter close_wire sut.wire;
  Option.iter remove_tree sut.dir;
  (* -- output checks -- *)
  check_true ~what:"measured run delivered reports" (run.total_reports > 0);
  if spec.parallel <> None && not traced then begin
    let serial = reference { spec with parallel = None } ~seed in
    check
      (Calc.check_equal ~what:"crawl-par2 digest vs serial crawl" run.prefix_digest
         serial.prefix_digest)
  end;
  let untraced =
    if traced then begin
      let r = reference spec ~seed in
      check (Calc.check_equal ~what:"traced vs untraced digest" run.prefix_digest r.prefix_digest);
      Some r
    end
    else None
  in
  let quarantined = counter "fault" "quarantined" in
  let attempted = run.docs + spec.subscriptions + wire_ops + run.total_reports in
  let failed = sut.rejected + int_of_float quarantined + wire_failed + missing in
  Printf.printf "digest(first %d steps)=%s steps=%d docs=%d reports=%d notifications=%d\n"
    checked_steps run.prefix_digest run.steps run.docs run.total_reports run.notifications;
  let e2e =
    [
      m "docs_per_s" "1/s" (float_of_int run.docs /. run.wall);
      pct_ms "step_ms_p50" run.step_times 50.;
      pct_ms "step_ms_p95" run.step_times 95.;
      m ~samples:(Samples.count setup_times) "setup_s" "s" setup_s;
      m "heap_peak_mb" "MB" (float_of_int (run.heap_peak_words * (Sys.word_size / 8)) /. 1048576.);
      pct_ms "subscribe_ms_p50" verdicts 50.;
    ]
  in
  let also =
    [
      pct_ms "subscribe_ms_p95" verdicts 95.;
      m ~samples:attempted "fail_ratio" "ratio" (Calc.ratio (float_of_int failed) (float_of_int attempted));
      pct_ms "deliver_ms_p50" deliver 50.;
      pct_ms "deliver_ms_p95" deliver 95.;
      m "restore_s" "s" restore_s;
    ]
  in
  let per_layer =
    match layers with
    | None -> []
    | Some l ->
        let _, load_s = hist "warehouse" "load_latency" in
        let _, detect_s = hist "alerters" "detect_latency" in
        let _, match_s = hist "mqp" "match_latency" in
        let _, fetch_s = hist "crawler" "fetch_latency" in
        let fsyncs, fsync_s = hist "durable" "fsync_batch" in
        let checkpoint_ms = Array.map ms (Samples.to_array l.checkpoint) in
        let facade = sut.crawler = None in
        (* Layers the benchmark cannot call one by one come from the
           library's own timers: inside crawl_step on the wire workload
           (the dispatch estimate is what crawl_step spent outside
           them), inside ingest_batch on the parallel one (summed over
           its domains, so they may add up to more than the wall). *)
        let inside = facade || spec.parallel <> None in
        let warehouse_s = if inside then load_s else busy l.warehouse in
        let alerters_s = if inside then detect_s else busy l.alerters in
        let match_busy = if inside then match_s else busy l.matching in
        let crawler_s = if facade then fetch_s else busy l.crawler in
        let dispatch_s =
          if facade then
            Float.max 0. (busy l.crawl_step -. load_s -. detect_s -. match_s -. fetch_s -. fsync_s)
          else busy l.dispatch
        in
        let probed layer_of =
          match probes with Some p -> busy (layer_of p.p_layers) | None -> busy (layer_of l)
        in
        let per_setup layer = busy layer /. float_of_int spec.setups in
        let layer_sum = !prefix_layer_sum in
        let wall_u = match untraced with Some r -> r.prefix_wall | None -> nan in
        let us_p95 =
          if facade then nan else 1e6 *. Calc.percentile (Samples.to_array l.warehouse) 95.
        in
        let cs f = match client_stats with Some s -> float_of_int (f s) | None -> 0. in
        [
          m "warehouse.busy_s" "s" warehouse_s;
          m ~samples:(Samples.count l.warehouse) "warehouse.us_p95" "us"
            (if Float.is_nan us_p95 then 0. else us_p95);
          m "alerters.busy_s" "s" alerters_s;
          m "alerters.alert_ratio" "ratio"
            (Calc.ratio (counter "alerters" "alerts") (counter "alerters" "docs"));
          m "mqp.match_busy_s" "s" match_busy;
          m "mqp.matches_per_alert" "ratio"
            (Calc.ratio (counter "mqp" "notifications") (counter "mqp" "alerts"));
          m "mqp.dispatch_busy_s" "s" dispatch_s;
          m "reporter.tick_busy_s" "s" (probed (fun l -> l.reporter_tick));
          m "reporter.reports" "count" (counter "reporter" "reports");
          m "reporter.buffered_start" "count" (float_of_int buffered_start);
          m "reporter.buffered_end" "count" (float_of_int buffered_end);
          m "trigger.tick_busy_s" "s" (probed (fun l -> l.trigger_tick));
          m "trigger.runs" "count"
            (counter "trigger" "periodic_runs" +. counter "trigger" "notification_runs");
          m "trigger.action_busy_s" "s" (snd (hist "trigger" "action_latency"));
          m "crawler.busy_s" "s" crawler_s;
          m "crawler.fetches" "count" (counter "crawler" "fetches");
          m "crawler.changed_ratio" "ratio"
            (Calc.ratio (counter "crawler" "changed") (counter "crawler" "fetches"));
          m "web.evolve_s" "s" (probed (fun l -> l.web));
          m "submgr.busy_s" "s" (per_setup l.submgr);
          m "system.subscribe_busy_s" "s" (per_setup l.subscribe);
          m "system.advance_busy_s" "s" (busy l.advance);
          m "system.crawl_step_busy_s" "s" (busy l.crawl_step);
          m "system.pump_busy_s" "s" (busy l.pump);
          m "wire.wait_s" "s" (busy l.wire_wait);
          m ~samples:(Array.length checkpoint_ms) "durable.checkpoint_ms_p95" "ms"
            (if checkpoint_ms = [||] then 0. else Calc.percentile checkpoint_ms 95.);
          m "durable.fsyncs" "count" fsyncs;
          m "durable.fsync_s" "s" fsync_s;
          m "durable.wal_bytes_per_doc" "B" (Calc.ratio wal (float_of_int run.docs));
          m "client.reports" "count" (cs (fun s -> s.Client.reports));
          m "client.duplicates" "count" (cs (fun s -> s.Client.duplicates));
          m "client.reconnects" "count" (cs (fun s -> s.Client.reconnects));
          m "serve.pending_end" "count" (float_of_int pending_end);
          m "parallel.ingest_busy_s" "s" (busy l.parallel);
          m "parallel.steals" "count" (counter "bus" "steals");
          m "gc.minor_collections" "count" (float_of_int run.gc_minor);
          m "gc.major_collections" "count" (float_of_int run.gc_major);
          m "gc.minor_mwords" "Mwords" (run.gc_minor_words /. 1e6);
          m "layer_sum_s" "s" layer_sum;
          m "untraced_wall_s" "s" wall_u;
          m "unattributed_share" "ratio" (Calc.unattributed_share ~layer_sum ~wall:wall_u);
        ]
        @ also
  in
  print_endline (if traced then "per-layer metrics (traced run):" else "end-to-end metrics:");
  List.iter print_metric (if traced then per_layer else e2e @ also);
  let correct = !failures = [] in
  if not correct then prerr_endline "perfbench: output checks failed";
  print_result ~correct ~attempted ~failed (if traced then per_layer else e2e);
  exit (if correct then 0 else 1)
