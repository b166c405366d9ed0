(** Durable subscription storage.

    The paper's Subscription Manager keeps subscriptions in a MySQL
    database "for recovery"; this module provides the same contract
    with an append-only, checksummed log: every accepted subscription
    (as source text) and every deletion is appended, and recovery
    replays the log.  Records use the shared checksummed format of
    {!Xy_durable.Record}: an [I] record's payload is the name, owner
    and source text, a [D] record's the name, each a
    {!Xy_util.Codec} string.  A truncated or corrupted tail (torn
    write at crash) is detected by checksum and ignored. *)

type t

(** [open_log path] opens (or creates) the log for appending.

    [faults] (default {!Xy_fault.Fault.none}) arms two failure
    points: [torn_write] cuts an append short and kills the log — the
    crash shape, every later append is silently dropped and {!scan}
    diagnoses the tail as [Torn]; [short_write] cuts one append short
    but lets the log live on, leaving mid-log damage {!scan}
    diagnoses as [Corrupt]. *)
val open_log : ?faults:Xy_fault.Fault.t -> string -> t

(** [is_dead t] — a [torn_write] fault has "crashed" this log. *)
val is_dead : t -> bool

val append_insert : t -> name:string -> owner:string -> text:string -> unit
val append_delete : t -> name:string -> unit
val close : t -> unit

type record = Insert of { name : string; owner : string; text : string } | Delete of string

(** [replay path] reads the log and returns the surviving records in
    order (an [Insert] cancelled by a later [Delete] is dropped).
    Returns [[]] for a missing file. *)
val replay : string -> record list

(** [read_all path] returns every raw record, including superseded
    ones (for inspection/tests). *)
val read_all : string -> record list

(** [scan path] is {!read_all} plus the tail diagnosis, so recovery
    can tell an ordinary torn tail from in-place damage (see
    {!Xy_durable.Record.tail}). *)
val scan : string -> record list * Xy_durable.Record.tail

(** [compaction t] begins an incremental compaction of an open, live
    log ({!Xy_durable.Record.Compaction}): each name's last record
    survives if it is an insert.  The live channel is closed around
    the swap and reopened after it, so appends issued while the task
    runs land in whichever file is in place.  [None] when the log is
    dead or unreadable. *)
val compaction : t -> Xy_durable.Record.Compaction.task option
