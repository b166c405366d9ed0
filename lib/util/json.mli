(** JSON string escaping, shared by the telemetry renderers ([/slo],
    [/traces]) and the bench harness. *)

(** [escape s] is [s] with double quotes, backslashes and every
    control character escaped, ready to sit between double quotes in a
    JSON document.  Other bytes pass through unchanged. *)
val escape : string -> string
