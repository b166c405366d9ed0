(* Distributed monitoring: the paper's two scale-out axes (§4.2) on
   real OCaml domains.  The same synthetic web and subscriptions run
   through the full pipeline once serially and then on the parallel
   engine — loader domains, Monitoring Query Processor shards, one
   in-order drainer — splitting either the documents or the
   subscriptions over the shards.  Every parallel run must deliver
   exactly the serial run's notifications.

   Run with:  dune exec examples/distributed.exe -- [--sites N] [--days D]
                [--subscriptions N] [--domains N] [--shards N] *)

module Xyleme = Xy_system.Xyleme
module Parallel = Xy_system.Parallel
module Partition = Xy_core.Partition
module Mqp = Xy_core.Mqp
module Web = Xy_crawler.Synthetic_web
module Sink = Xy_reporter.Sink

let subscription_text i ~sites =
  let site = i mod sites in
  match i mod 3 with
  | 0 ->
      Printf.sprintf
        {|subscription PageWatch%d
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site%d.example.org/" and modified self
report when count > 5 atmost daily|}
        i site
  | 1 ->
      Printf.sprintf
        {|subscription ProductWatch%d
monitoring
where new self\\product contains "camera"
  and URL extends "http://site%d.example.org/"
report when immediate|}
        i site
  | _ ->
      Printf.sprintf
        {|subscription WordWatch%d
monitoring
where self contains "wireless" and URL extends "http://site%d.example.org/"
report when count > 3 atmost weekly|}
        i site

(* One run from scratch: returns the sorted notification multiset, the
   wall time of the crawl, and the documents fetched. *)
let run ?parallel ~sites ~days ~subscriptions () =
  let web = Web.generate ~seed:2026 ~sites ~pages_per_site:8 () in
  let sink, _ = Sink.counting () in
  let xyleme = Xyleme.create ~seed:7 ~sink ~web ?parallel () in
  for i = 0 to subscriptions - 1 do
    match
      Xyleme.subscribe xyleme
        ~owner:(Printf.sprintf "user%d@example.org" i)
        ~text:(subscription_text i ~sites)
    with
    | Ok _ -> ()
    | Error e -> failwith (Xy_submgr.Manager.error_to_string e)
  done;
  let notifications = ref [] in
  Mqp.on_batch (Xyleme.mqp xyleme) (fun a matched ->
      List.iter (fun id -> notifications := (a.Mqp.url, id) :: !notifications) matched);
  Xyleme.discover xyleme;
  let start = Unix.gettimeofday () in
  Xyleme.run xyleme ~days ~step:(6. *. 3600.) ~fetch_limit:500;
  let wall = Unix.gettimeofday () -. start in
  ( List.sort compare !notifications,
    wall,
    (Xyleme.stats xyleme).Xyleme.documents_fetched )

let () =
  let sites = ref 12 and days = ref 14. and subscriptions = ref 300 in
  let domains = ref 2 and shards = ref 2 in
  let rec parse = function
    | "--sites" :: n :: rest ->
        sites := int_of_string n;
        parse rest
    | "--days" :: d :: rest ->
        days := float_of_string d;
        parse rest
    | "--subscriptions" :: n :: rest ->
        subscriptions := int_of_string n;
        parse rest
    | "--domains" :: n :: rest ->
        domains := int_of_string n;
        parse rest
    | "--shards" :: n :: rest ->
        shards := int_of_string n;
        parse rest
    | _ :: rest -> parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let sites = !sites and days = !days and subscriptions = !subscriptions in
  Printf.printf
    "workload: %d sites, %d subscriptions, %.0f simulated days, %d cores \
     recommended\n\n"
    sites subscriptions days
    (Domain.recommended_domain_count ());
  Printf.printf "%-15s %-8s %-7s %-9s %-10s %-14s %s\n" "axis" "domains"
    "shards" "wall s" "docs/s" "notifications" "= serial";
  let expected, wall, fetched = run ~sites ~days ~subscriptions () in
  Printf.printf "%-15s %-8d %-7d %-9.3f %-10.0f %-14d %s\n%!" "serial" 1 1 wall
    (float_of_int fetched /. wall)
    (List.length expected) "-";
  let all_equal = ref true in
  List.iter
    (fun (label, axis) ->
      let parallel =
        { Parallel.default_config with
          domains = !domains; shards = !shards; axis }
      in
      let got, wall, fetched = run ~parallel ~sites ~days ~subscriptions () in
      let same = got = expected in
      if not same then all_equal := false;
      Printf.printf "%-15s %-8d %-7d %-9.3f %-10.0f %-14d %s\n%!" label
        !domains !shards wall
        (float_of_int fetched /. wall)
        (List.length got)
        (if same then "yes" else "NO"))
    [
      ("documents", Partition.Split_documents);
      ("subscriptions", Partition.Split_subscriptions);
    ];
  if not !all_equal then begin
    prerr_endline "parallel notifications differ from the serial run";
    exit 1
  end
