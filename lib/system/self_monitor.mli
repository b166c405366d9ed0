(** Xyleme monitoring itself.

    The paper's system is its own best use case: system health is just
    more XML data on (a virtual) web.  This module renders the
    {!Xy_obs} snapshot, the {!Xy_trace} summaries and the {!Xy_slo}
    reports as XML documents under the [xyleme://self/] scheme;
    {!Xyleme.advance} feeds the due ones through the *unmodified*
    pipeline — loader, alerters, MQP, reporter — as a batch like any
    crawl step's, so operators watch Xyleme with ordinary
    subscriptions, e.g.

    {v
subscription ReporterBacklog
monitoring
where modified self\\reporter_buffer_depth contains "over_1000"
  and URL extends "xyleme://self/"
report when immediate
    v}

    Numeric thresholds work through the word-based condition language
    via {e decade markers}: a metric element's text carries its value
    plus one marker word per power of ten it reaches ([over_1]
    [over_10] [over_100] …), so [contains "over_1000"] is exactly
    "value ≥ 1000".  Since word matching is exact, [over_10] does not
    fire for [over_100]. *)

val health_url : string
(** ["xyleme://self/metrics.xml"] *)

val traces_url : string
(** ["xyleme://self/traces.xml"] *)

(** [health_document ~snapshot] is a [<health>] element with one child
    per metric, tagged [<stage>_<name>] (e.g.
    [<reporter_buffer_depth>]); the text is the metric's value
    followed by its decade markers.  Histograms contribute their
    sample count as the value, [sum]/[max]/[p50]/[p95]/[p99]
    attributes, and one [<bucket le count/>] child per non-empty
    bucket ([le="+inf"] for the overflow).  This is the one XML view
    of a metrics snapshot: [xyleme stats --xml] and the wire STATUS
    reply serve it too. *)
val health_document : snapshot:Xy_obs.Obs.Snapshot.t -> Xy_xml.Types.element

(** [traces_document tracer] is a [<trace_summary>] element: sampled
    trace counts plus one [trace_<stage>] child per pipeline stage
    seen in the completed-trace ring, carrying the stage's total wall
    milliseconds (and decade markers thereof). *)
val traces_document : Xy_trace.Trace.t -> Xy_xml.Types.element

(** [slo_url name] is ["xyleme://self/slo/<name>.xml"] — one stable
    URL per objective, so a subscription on
    [URL extends "xyleme://self/slo/"] sees every status transition. *)
val slo_url : string -> string

(** [slo_document report] is a [<slo>] element whose [<status>] child
    carries the word [breached] or [ok] (the word alerting
    subscriptions test with [contains]), plus burn rates and window
    tallies with decade markers.  Its [at] attribute, like
    {!health_document}'s, is in seconds with millisecond resolution. *)
val slo_document : Xy_slo.Slo.report -> Xy_xml.Types.element

(** [slo_changed ~stored report] is [true] when the [<status>] word of
    [stored] (a previously ingested {!slo_document}) differs from
    [report]'s, or when there is no stored copy: the objective's page
    is due for ingestion. *)
val slo_changed : stored:Xy_xml.Types.element option -> Xy_slo.Slo.report -> bool

(** [content doc] is the serialized form of one of the documents
    above, as it is ingested. *)
val content : Xy_xml.Types.element -> string
