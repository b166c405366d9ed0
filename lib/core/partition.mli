(** Distributed Monitoring Query Processing (paper §4.2).

    "One can use distribution along two directions:
    1. Processing speed: split the flow of documents into several
       partitions and assign a Monitoring Query Processor to each
       block.
    2. Memory: split the subscriptions into several partitions and
       assign a Monitoring Query Processor to each block."

    Both axes are simulated in-process: each partition is an
    independent {!Mqp.t}, and the router below reproduces the data
    placement each axis implies.  The same {!axis} type and placement
    functions drive the real multi-domain engine
    ([Xy_system.Parallel]). *)

(** How alerts are routed to processor partitions. *)
type axis =
  | Split_documents
      (** every partition holds all subscriptions; each alert is routed
          to exactly one partition (hash of the URL) *)
  | Split_subscriptions
      (** subscriptions are spread over partitions; each alert is sent
          to all partitions and the matches are merged *)

(** [slot_of_url ~partitions url] is the partition a document belongs
    to on the document-flow axis (FNV-1a hash of the URL, folded into
    [partitions]).  Pure: any domain re-derives the same placement. *)
val slot_of_url : partitions:int -> string -> int

(** [slot_of_subscription ~partitions id] is the partition a complex
    event belongs to on the subscription axis ([id mod partitions]). *)
val slot_of_subscription : partitions:int -> int -> int

type t

val create : ?algorithm:Mqp.algorithm -> axis -> partitions:int -> t
val axis : t -> axis
val partitions : t -> int

val subscribe : t -> id:int -> Xy_events.Event_set.t -> unit
val unsubscribe : t -> id:int -> unit

(** [process t alert] routes per the axis and returns the merged
    sorted match list. *)
val process : t -> Mqp.alert -> int list

(** [route t alert] is the list of partition indexes the alert visits
    (1 for [Split_documents], all for [Split_subscriptions]). *)
val route : t -> Mqp.alert -> int list

(** [memory_per_partition t] is the approximate footprint of each
    partition, in words — the quantity axis 2 is meant to shrink. *)
val memory_per_partition : t -> int array
