(* The benchmark's arithmetic, kept apart from the workload code so that
   selftest.ml can check it: raw-sample percentiles, ratios, the
   unattributed share of a traced run, and the output digest. *)

(* A growable float buffer: every timing is kept as a raw sample, so
   percentiles are exact order statistics rather than histogram
   bucket bounds. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let count t = t.len
  let clear t = t.len <- 0
  let sum t = Array.fold_left ( +. ) 0. (Array.sub t.data 0 t.len)
  let to_array t = Array.sub t.data 0 t.len
end

(* Nearest-rank percentile ([p] in (0, 100]) of the raw samples:
   the smallest sample with at least p% of the samples at or below
   it.  [nan] for an empty set. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let median samples = percentile samples 50.

(* [ratio num den] is num/den, 0 when nothing was attempted. *)
let ratio num den = if den <= 0. then 0. else num /. den

(* The share of an untraced run's timed wall that the traced run's
   layer spans do not account for.  Negative when the spans add up to
   more than the untraced wall (tracing overhead). *)
let unattributed_share ~layer_sum ~wall = 1. -. ratio layer_sum wall

(* One report as it left the system, in delivery order. *)
type delivery = {
  seq : int;
  recipient : string;
  subscription : string;
  at : float;
  body : string;
}

(* The output digest of a run, built step by step: [chain prev
   deliveries] folds one step's deliveries, field by field and in
   delivery order, into the running digest [prev]; [seal] closes it
   with the run's notification count. *)
let chain prev deliveries =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf prev;
  List.iter
    (fun d ->
      Printf.bprintf buf "\n%d|%s|%s|%h|%d|" d.seq d.recipient d.subscription
        d.at (String.length d.body);
      Buffer.add_string buf d.body)
    deliveries;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let seal prev ~notifications = chain (prev ^ "#" ^ string_of_int notifications) []

(* A named output check: [Error] carries the mismatch for the log. *)
let check_equal ~what a b =
  if a = b then Ok () else Error (Printf.sprintf "%s: %s <> %s" what a b)
