(* Supervised wire-protocol client.

   One supervisor thread owns the link for its whole life: it dials,
   re-HELLOs under the same client id, replays every request the
   previous connection left unanswered, reads inbound events, and
   keeps the link honest with PING/PONG.  Losing the connection — a
   peer reset, an injected fault, an [ERR busy] shed — never
   surfaces to the caller: the supervisor backs off (capped
   exponential with jitter) and dials again.  Exactly-once delivery
   to the [on_report] callback is recovered from the server's
   at-least-once stream by seq dedup that survives reconnects.

   Requests are wake-driven.  [submit] queues its op and writes the
   frame on the caller's thread at once (under [wmu], which the
   supervisor's ACK/PING writes take too, so frames never
   interleave); with no live link the op waits, queued, for the next
   session's replay.  The caller then sleeps on [cond], which the
   supervisor broadcasts when it completes an op, connects, loses the
   link, or is closed.  Caller deadlines ride the supervisor's receive
   tick: every expired read, and every tick-sized slice of a backoff
   sleep, broadcasts as well, so a timeout is honoured within one
   [tick] — but nothing between a request and its verdict waits on
   one. *)

let log_src = Logs.Src.create "xy.serve.client" ~doc:"Supervised wire client"

module Log = (val Logs.src_log log_src)
module Prng = Xy_util.Prng

type config = {
  host : string;
  port : int;
  id : string;
  backoff_initial : float;
  backoff_max : float;
  jitter : float;
  ping_interval : float;
  pong_deadline : float;
  max_frame : int;
  seed : int;
}

let config ?(host = "127.0.0.1") ?(backoff_initial = 0.05) ?(backoff_max = 2.)
    ?(jitter = 0.25) ?(ping_interval = 5.) ?(pong_deadline = 10.)
    ?(max_frame = Frame.default_max_frame) ?(seed = 42) ~port ~id () =
  {
    host;
    port;
    id;
    backoff_initial;
    backoff_max;
    jitter;
    ping_interval;
    pong_deadline;
    max_frame;
    seed;
  }

type report = { seq : int; subscription : string; at : float; body : string }

type stats = {
  connects : int;  (** successful HELLO/WELCOME handshakes *)
  reconnects : int;  (** connects beyond the first *)
  attempts : int;  (** dial attempts, including failures *)
  reports : int;  (** unique reports delivered to the callback *)
  duplicates : int;  (** redeliveries suppressed by seq dedup *)
}

(* A request the caller is (maybe) blocked on.  [sends] counts
   writes across reconnects: a replayed SUBSCRIBE that the server
   already registered comes back as a "duplicate subscription" error,
   which on a retry is success. *)
type op = {
  req : Frame.request;
  mutable result : (string, string) result option;
  mutable sends : int;
}

type t = {
  cfg : config;
  on_report : (report -> unit) option;
  mu : Mutex.t;  (* guards everything below but [seen] *)
  cond : Condition.t;  (* broadcast whenever a waiter may be done *)
  wmu : Mutex.t;  (* serialises writes to [link]; taken before [mu] *)
  commands : op Queue.t;  (* unanswered SUBSCRIBE/UNSUBSCRIBE, oldest first *)
  statuses : op Queue.t;  (* unanswered STATUS, oldest first *)
  seen : (int, unit) Hashtbl.t;  (* seq dedup, supervisor-only *)
  prng : Prng.t;  (* backoff jitter *)
  mutable link : Unix.file_descr option;  (* live, welcomed connection *)
  mutable stopped : bool;
  mutable thread : Thread.t option;
  mutable st_connects : int;
  mutable st_attempts : int;
  mutable st_reports : int;
  mutable st_duplicates : int;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* [f] runs under [mu]; everyone sleeping on [cond] then re-checks. *)
let wake t f =
  let r = locked t f in
  Condition.broadcast t.cond;
  r

(* The supervisor's receive timeout, and the slice its backoff sleeps
   in: the resolution of every caller deadline. *)
let tick = 0.05

(* ---- supervisor internals ---- *)

let close_fd_quietly fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* [Unix.write] loops until every byte is out or it fails. *)
let write fd req =
  let data = Frame.encode_request req in
  ignore (Unix.write_substring fd data 0 (String.length data))

exception Link_down of string

let send t fd req =
  Mutex.lock t.wmu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.wmu) @@ fun () ->
  try write fd req
  with Unix.Unix_error (e, _, _) -> raise (Link_down (Unix.error_message e))

(* Write [ops] to [fd] in order; the caller holds [wmu].  A failed
   write only shuts the socket down: the supervisor's read notices,
   and the ops, still unanswered, replay on the next session. *)
let write_ops t fd ops =
  locked t (fun () -> List.iter (fun op -> op.sends <- op.sends + 1) ops);
  try List.iter (fun op -> write fd op.req) ops
  with Unix.Unix_error _ -> (
    try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())

(* The server answers SUBSCRIBE/UNSUBSCRIBE from the pipeline pump
   but STATUS straight from the reader, so replies of the two classes
   can interleave; within each class order is preserved. *)
let queue_of t = function Frame.Status -> t.statuses | _ -> t.commands

let duplicate_prefix = "duplicate subscription: "

(* A reply completes the oldest unanswered op of its class and wakes
   its caller. *)
let complete t q result =
  let finish op =
    op.result <-
      Some
        (match (op.req, result) with
        | Frame.Subscribe _, Error msg
          when op.sends > 1 && String.starts_with ~prefix:duplicate_prefix msg ->
            (* the previous connection's SUBSCRIBE did land before the
               link died; the replay finding it registered is success *)
            let n = String.length duplicate_prefix in
            Ok (String.sub msg n (String.length msg - n))
        | _, r -> r)
  in
  if wake t (fun () -> Option.map finish (Queue.take_opt q)) = None then
    Log.debug (fun m ->
        m "unmatched reply: %s"
          (match result with Ok s -> "OK " ^ s | Error e -> "ERR " ^ e))

(* The server poisons a session (ERR, then close) when chaos mangles
   our bytes in flight.  Those ERRs describe the transport, not any
   request — treating one as a SUBSCRIBE verdict would fail the op
   terminally for a transient network fault, so they tear the link
   down instead and the op replays on the next connection. *)
let poison_prefixes =
  [ "malformed request"; "bad frame header"; "frame length"; "frame checksum" ]

let is_poison msg =
  List.exists (fun p -> String.starts_with ~prefix:p msg) poison_prefixes

(* The one frame reader, shared by the handshake and the session:
   the next whole event after at most one read, or [None].  A read
   that hits the receive tick wakes every waiter to re-check its
   deadline.  Raises [Link_down] on any read or framing failure. *)
let next_event t fd dec buf =
  let decode () =
    match Frame.next dec with
    | Ok None -> None
    | Ok (Some payload) -> (
        match Frame.decode_event payload with
        | Ok ev -> Some ev
        | Error msg -> raise (Link_down ("malformed event: " ^ msg)))
    | Error e -> raise (Link_down (Frame.error_to_string e))
  in
  match decode () with
  | Some ev -> Some ev
  | None -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          Condition.broadcast t.cond;
          None
      | exception Unix.Unix_error (e, _, _) ->
          raise (Link_down (Unix.error_message e))
      | 0 -> raise (Link_down "connection closed by server")
      | n ->
          Frame.feed dec (Bytes.sub_string buf 0 n);
          decode ())

(* Dial + handshake.  Returns the connected fd and its decoder, or
   the number of seconds the server asked us to stay away
   ([ERR busy]). *)
let dial t buf =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let dec = Frame.decoder ~max_frame:t.cfg.max_frame () in
  let deadline = Unix.gettimeofday () +. 5. in
  let rec await () =
    match next_event t fd dec buf with
    | Some (Frame.Welcome pending) -> `Connected pending
    | Some (Frame.Err msg) when String.starts_with ~prefix:"busy" msg -> (
        (* admission shed: honor the retry hint *)
        match String.split_on_char '=' msg with
        | [ _; h ] -> (
            match float_of_string_opt h with Some h when h > 0. -> `Busy h | _ -> `Busy 1.)
        | _ -> `Busy 1.)
    | Some _ -> await ()
    | None ->
        if t.stopped || Unix.gettimeofday () >= deadline then
          `Failed "handshake timeout"
        else await ()
  in
  let verdict =
    try
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string t.cfg.host, t.cfg.port));
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO tick;
      write fd (Frame.Hello t.cfg.id);
      await ()
    with
    | Unix.Unix_error (e, _, _) -> `Failed (Unix.error_message e)
    | Link_down msg -> `Failed msg
    | e ->
        close_fd_quietly fd;
        raise e
  in
  match verdict with
  | `Connected pending ->
      Log.debug (fun m ->
          m "connected to %s:%d (%d pending)" t.cfg.host t.cfg.port pending);
      Ok (fd, dec)
  | `Busy hint ->
      close_fd_quietly fd;
      Error (`Busy hint)
  | `Failed msg ->
      close_fd_quietly fd;
      Error (`Failed msg)

let handle_event t fd ev =
  match ev with
  | Frame.Report r ->
      (* at-least-once stream in; exactly-once callback out *)
      if Hashtbl.mem t.seen r.seq then
        locked t (fun () -> t.st_duplicates <- t.st_duplicates + 1)
      else begin
        Hashtbl.replace t.seen r.seq ();
        locked t (fun () -> t.st_reports <- t.st_reports + 1);
        match t.on_report with
        | Some f -> (
            try
              f { seq = r.seq; subscription = r.subscription; at = r.at; body = r.body }
            with e ->
              Log.warn (fun m ->
                  m "on_report raised: %s" (Printexc.to_string e)))
        | None -> ()
      end;
      send t fd (Frame.Ack r.seq)
  | Frame.Okay name -> complete t t.commands (Ok name)
  | Frame.Err msg when is_poison msg -> raise (Link_down ("poisoned: " ^ msg))
  | Frame.Err msg -> complete t t.commands (Error msg)
  | Frame.Status_reply xml -> complete t t.statuses (Ok xml)
  | Frame.Pong _ | Frame.Welcome _ -> ()

(* One connected session: publish the link and replay everything the
   old connection left unanswered — in order, and before any new
   submit can write — then read until the link dies.  Raises
   [Link_down] on any failure. *)
let session t fd dec buf =
  Mutex.lock t.wmu;
  let replay =
    wake t (fun () ->
        t.link <- Some fd;
        t.st_connects <- t.st_connects + 1;
        List.of_seq (Seq.append (Queue.to_seq t.commands) (Queue.to_seq t.statuses)))
  in
  write_ops t fd replay;
  Mutex.unlock t.wmu;
  let last_ping = ref (Unix.gettimeofday ()) in
  let awaiting_pong = ref None in
  let maybe_ping () =
    let now = Unix.gettimeofday () in
    (match !awaiting_pong with
    | Some t0 when t.cfg.pong_deadline > 0. && now -. t0 > t.cfg.pong_deadline
      ->
        raise (Link_down "pong deadline exceeded")
    | _ -> ());
    if
      t.cfg.ping_interval > 0.
      && now -. !last_ping >= t.cfg.ping_interval
      && !awaiting_pong = None
    then begin
      last_ping := now;
      awaiting_pong := Some now;
      send t fd (Frame.Ping (string_of_float now))
    end
  in
  while not t.stopped do
    maybe_ping ();
    match next_event t fd dec buf with
    | Some (Frame.Pong _) -> awaiting_pong := None
    | Some ev -> handle_event t fd ev
    | None -> ()
  done

let backoff_delay t n =
  let base =
    Float.min t.cfg.backoff_max
      (t.cfg.backoff_initial *. Float.pow 2. (float_of_int n))
  in
  let j = Float.max 0. (Float.min 1. t.cfg.jitter) in
  (* uniform in [base*(1-j), base*(1+j)] *)
  base *. (1. -. j +. Prng.float t.prng (2. *. j))

(* Stay away for [d] seconds in tick-sized slices, waking waiters
   after each so their deadlines hold while the link is down. *)
let pause t d =
  let until = Unix.gettimeofday () +. d in
  let rec go () =
    let left = until -. Unix.gettimeofday () in
    if left > 0. && not t.stopped then begin
      Thread.delay (Float.min tick left);
      Condition.broadcast t.cond;
      go ()
    end
  in
  go ()

let supervisor t =
  let buf = Bytes.create 8192 in
  let failures = ref 0 in
  while not t.stopped do
    locked t (fun () -> t.st_attempts <- t.st_attempts + 1);
    match dial t buf with
    | Ok (fd, dec) ->
        failures := 0;
        (try session t fd dec buf with
        | Link_down reason ->
            if not t.stopped then
              Log.info (fun m -> m "link down (%s), reconnecting" reason)
        | e ->
            Log.warn (fun m ->
                m "session error: %s" (Printexc.to_string e)));
        (* unblock any submit mid-write before waiting for [wmu] *)
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        Mutex.lock t.wmu;
        wake t (fun () -> t.link <- None);
        close_fd_quietly fd;
        Mutex.unlock t.wmu
    | Error (`Busy hint) ->
        Log.info (fun m -> m "shed by server, retrying in %gs" hint);
        pause t hint
    | Error (`Failed reason) ->
        let d = backoff_delay t !failures in
        incr failures;
        Log.debug (fun m ->
            m "dial failed (%s), retrying in %.3fs" reason d);
        pause t d
  done

(* ---- public API ---- *)

let connect ?on_report cfg =
  let t =
    {
      cfg;
      on_report;
      mu = Mutex.create ();
      cond = Condition.create ();
      wmu = Mutex.create ();
      commands = Queue.create ();
      statuses = Queue.create ();
      seen = Hashtbl.create 256;
      prng = Prng.create ~seed:cfg.seed;
      link = None;
      stopped = false;
      thread = None;
      st_connects = 0;
      st_attempts = 0;
      st_reports = 0;
      st_duplicates = 0;
    }
  in
  t.thread <- Some (Thread.create supervisor t);
  t

(* Sleep on [cond] until [ready ()] (checked under [mu]) holds, the
   client is closed, or [timeout] passes. *)
let await t ~timeout ready =
  let deadline = Unix.gettimeofday () +. timeout in
  locked t (fun () ->
      let rec go () =
        match ready () with
        | Some v -> Some v
        | None when t.stopped || Unix.gettimeofday () >= deadline -> None
        | None ->
            Condition.wait t.cond t.mu;
            go ()
      in
      go ())

let wait_connected ?(timeout = 5.) t =
  await t ~timeout (fun () -> Option.map ignore t.link) <> None

let submit t req ~timeout =
  let op = { req; result = None; sends = 0 } in
  Mutex.lock t.wmu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.wmu) (fun () ->
      let link =
        locked t (fun () ->
            Queue.push op (queue_of t req);
            t.link)
      in
      Option.iter (fun fd -> write_ops t fd [ op ]) link);
  match await t ~timeout (fun () -> op.result) with
  | Some r -> r
  | None -> Error "timeout"

let subscribe ?(timeout = 10.) t ~owner ~text =
  submit t (Frame.Subscribe { owner; text }) ~timeout

let unsubscribe ?(timeout = 10.) t name =
  submit t (Frame.Unsubscribe name) ~timeout

let status ?(timeout = 10.) t = submit t Frame.Status ~timeout

let connected t = t.link <> None

let stats t =
  locked t (fun () ->
      {
        connects = t.st_connects;
        reconnects = Int.max 0 (t.st_connects - 1);
        attempts = t.st_attempts;
        reports = t.st_reports;
        duplicates = t.st_duplicates;
      })

let close t =
  if not t.stopped then begin
    (match wake t (fun () -> t.stopped <- true; t.link) with
    | Some fd -> (
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    | None -> ());
    Option.iter Thread.join t.thread;
    t.thread <- None
  end
