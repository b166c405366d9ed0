(** The one on-disk record format.

    Every recovery file the system writes — the subscription log
    ({!Xy_submgr.Persist}), the delivery ledger
    ({!Xy_reporter.Sink.ledger}), the write-ahead log and the
    snapshots ({!Durable}) — is a sequence of records

    {v <tag> <payload_len> <crc>\n<payload>\n v}

    where [tag] is one character naming the record kind, [payload] is
    opaque bytes (the callers encode fields with {!Xy_util.Codec}) and
    [crc] is the 16-hex-digit FNV-1a signature of the payload mixed
    with the tag, so a damaged tag byte cannot turn one valid kind
    into another.

    One reader serves all four files and tells the crash shape from
    damage: a record cut short at the end of the file (header or
    payload) is [Torn], a full-length record failing its checksum or
    framing is [Corrupt].  Header integers are parsed strictly
    ({!Xy_util.Parse.decimal_int}), and a declared length past one
    channel buffer is checked against the bytes left in the file
    before it is allocated, so a damaged length field yields a
    verdict, never an exception. *)

(** How a scanned file ended. *)
type tail =
  | Clean  (** every byte accounted for, ending at a record boundary *)
  | Torn
      (** the final record is shorter than its header promises — the
          expected shape of a crash mid-append; everything before it
          is intact *)
  | Corrupt
      (** a full-length record failed its checksum or framing — bytes
          were damaged in place; records after it are lost *)

(** {2 Writing} *)

(** [encode tag payload] is the record's exact bytes. *)
val encode : char -> string -> string

(** [output oc tag parts] writes the record whose payload is the
    concatenation of [parts] to [oc], without building the payload or
    the record as one string (large snapshot sections). *)
val output : out_channel -> char -> string list -> unit

(** {2 Reading} *)

(** [scan path decode] reads every intact record of [path] in order,
    decoding each with [decode], plus the tail verdict.  A record
    whose [decode] raises {!Xy_util.Codec.Malformed} (intact bytes
    that do not parse, e.g. an unknown tag) ends the scan as
    [Corrupt].  A missing file is [([], Clean)]. *)
val scan : string -> (char -> string -> 'a) -> 'a list * tail

(** {2 Syncing}

    An atomic temp+rename survives a process kill but not a power
    loss unless the file's bytes were fsynced before the rename and
    the directory entry after it.  [fsync:false] (tests and benches
    that only model kills) degrades both to plain flushes. *)

val sync_channel : ?fsync:bool -> out_channel -> unit
val sync_dir : ?fsync:bool -> string -> unit

(** {2 Incremental compaction}

    Rewrites a log keeping only the last record of each key, a
    bounded number of records at a time so it can interleave with
    normal appends:

    - indexing finds each key's last record, noting the byte offset
      where indexing stopped;
    - writing streams the surviving records into a [<path>.compact]
      temp;
    - the finishing step copies everything appended past the indexing
      offset verbatim (appends during the task are newer than
      anything indexed, so last-record-wins still holds), fsyncs,
      renames the temp into place and fsyncs the directory.

    Damage found while reading, and any I/O error while creating,
    writing or renaming the temp, abandons the task: the temp is
    removed and the log is left byte for byte as it was. *)
module Compaction : sig
  type task

  type progress =
    | Running  (** call {!step} again *)
    | Finished of int  (** compacted; the count of records dropped *)
    | Abandoned  (** damage or an I/O error; the log is untouched *)

  (** [start ~key path] begins a compaction of the log at [path].
      [key tag payload] is the record's key and whether it is live:
      the last record of each key survives when live, and a non-live
      last record drops the key (it may raise
      {!Xy_util.Codec.Malformed}, which abandons the task).

      A writer holding the log open for append passes [park], called
      before the swap to flush and close its channel (returning
      [false] abandons the task instead, e.g. when the writer died),
      and [reopen], called after the swap or its failure to reopen
      the channel onto whichever file is in place.

      [None] when the log cannot be opened.  A stale temp from an
      earlier crashed task is removed first. *)
  val start :
    ?park:(unit -> bool) ->
    ?reopen:(unit -> unit) ->
    key:(char -> string -> string * bool) ->
    string ->
    task option

  (** [step task ~budget] processes up to [budget] records; the
      finishing step also swaps the compacted file into place.  After
      [Finished] or [Abandoned] the task is spent. *)
  val step : task -> budget:int -> progress
end
