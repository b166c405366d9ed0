module Fault = Xy_fault.Fault
module Record = Xy_durable.Record
module Codec = Xy_util.Codec

type t = {
  path : string;
  mutable channel : out_channel;
  faults : Fault.t;
  mutable dead : bool;  (** a torn write "crashed" this log *)
}

let open_channel path =
  open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path

let open_log ?(faults = Fault.none) path =
  { path; channel = open_channel path; faults; dead = false }

let is_dead t = t.dead

type record =
  | Insert of { name : string; owner : string; text : string }
  | Delete of string

(* An [I] record's payload is the name, owner and source text; a [D]
   record's is the name alone. *)
let append t tag fields =
  if not t.dead then begin
    let buf = Buffer.create 256 in
    List.iter (Codec.string buf) fields;
    let record = Record.encode tag (Buffer.contents buf) in
    let record =
      (* Two distinct failure shapes: [torn_write] is a crash — a
         strict prefix lands and nothing is ever appended again (the
         expected Torn tail); [short_write] damages one record but the
         log lives on, leaving mid-log corruption for {!scan} to
         diagnose as Corrupt. *)
      if Fault.fire t.faults "torn_write" then begin
        t.dead <- true;
        String.sub record 0
          (Fault.draw_int t.faults "torn_write" ~bound:(String.length record))
      end
      else if Fault.fire t.faults "short_write" then
        String.sub record 0
          (Fault.draw_int t.faults "short_write" ~bound:(String.length record))
      else record
    in
    output_string t.channel record;
    flush t.channel
  end

let append_insert t ~name ~owner ~text = append t 'I' [ name; owner; text ]
let append_delete t ~name = append t 'D' [ name ]
let close t = close_out t.channel

let decode tag payload =
  let r = Codec.reader payload in
  let record =
    match tag with
    | 'I' ->
        let name = Codec.read_string r in
        let owner = Codec.read_string r in
        let text = Codec.read_string r in
        Insert { name; owner; text }
    | 'D' -> Delete (Codec.read_string r)
    | _ -> raise (Codec.Malformed "unknown subscription-log record")
  in
  Codec.expect_end r;
  record

let scan path = Record.scan path decode
let read_all path = fst (scan path)

(* Drop inserts cancelled by a later delete or superseded by a later
   re-insert (and the deletes themselves): only each name's last
   record matters, and it survives iff it is an insert.  One indexed
   pass instead of a rescan-the-tail per record — recovery is hot at
   10^5 subscriptions. *)
let survivors records =
  let last = Hashtbl.create 1024 in
  List.iteri
    (fun i record ->
      match record with
      | Insert { name; _ } -> Hashtbl.replace last name i
      | Delete name -> Hashtbl.remove last name)
    records;
  List.filteri
    (fun i record ->
      match record with
      | Insert { name; _ } -> Hashtbl.find_opt last name = Some i
      | Delete _ -> false)
    records

let replay path = survivors (read_all path)

(* A dead (torn) log is never compacted: that would resurrect a log
   that is supposed to have crashed. *)
let compaction t =
  if t.dead then None
  else
    Record.Compaction.start t.path
      ~key:(fun tag payload ->
        (Codec.read_string (Codec.reader payload), tag = 'I'))
      ~park:(fun () ->
        if t.dead then false
        else begin
          close_out t.channel;
          true
        end)
      ~reopen:(fun () -> t.channel <- open_channel t.path)
