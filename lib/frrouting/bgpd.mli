(** The FRR-like BGP daemon — one of the two deliberately different xBGP
    hosts (§2.1 of the paper).

    Signature traits mirroring FRRouting: interned host-byte-order
    attributes ({!Attr_intern}, so every xBGP call pays a TLV
    conversion); a native parser that drops unknown attributes and an
    encoder that emits only known ones; native origin validation through
    a ROA {e trie} ({!Rpki.Store_trie}, §3.4); native RFC 4456 route
    reflection that can be switched off and replaced by extension
    bytecode (§3.2).

    The pipeline per received UPDATE follows Fig. 2:
    receive-message point -> parse -> per-prefix inbound-filter point ->
    Adj-RIB-In -> Loc-RIB/decision (decision point) -> per-peer
    outbound-filter point -> Adj-RIB-Out -> encode-message point ->
    wire. *)

type peer_conf = {
  pname : string;
  remote_as : int;
  remote_addr : int;
  rr_client : bool;  (** route-reflector client (RFC 4456) *)
  port : Netsim.Pipe.port;
}

type config

val config :
  ?cluster_id:int ->
  ?hold_time:int ->
  ?native_rr:bool ->
  ?native_ov:Rpki.Store_trie.t ->
  ?igp_metric:(int -> int) ->
  ?xtras:(string * bytes) list ->
  ?batch_updates:bool ->
  ?update_groups:bool ->
  name:string ->
  router_id:int ->
  local_as:int ->
  local_addr:int ->
  unit ->
  config
(** [cluster_id] defaults to the router id; [igp_metric] maps a next-hop
    address to its IGP cost; [xtras] feed the [get_xtra] helper.
    [batch_updates] (default [true]) processes a multi-prefix UPDATE's
    NLRI as one batch sharing one converted attribute view; [false]
    restores the legacy per-prefix path (the dispatch-bench baseline).
    [update_groups] (default [true]) partitions peers into update groups
    ({!Rib.Update_group}) so export policy, outbound dispatch and UPDATE
    encoding run once per group and the frames fan out to every member;
    [false] restores the per-peer export path (the fan-out baseline). *)

(** Validation-result communities attached by native origin validation
    and, identically, by the extension (65535:1/2/3). *)

val ov_community_valid : int
val ov_community_invalid : int
val ov_community_notfound : int

(** Route provenance tags. *)

val src_local : int
val src_ebgp : int
val src_ibgp : int

type route = {
  attrs : Attr_intern.t;
  src : int;  (** peer index; -1 = locally originated *)
  src_type : int;
  src_router_id : int;
  src_addr : int;
  src_rr_client : bool;
  igp_cost : int;
}

type peer = {
  idx : int;
  conf : peer_conf;
  peer_type : int;
  session : Session.Fsm.t;
  mutable synced : bool;
}

type stats = Telemetry.daemon_stats = {
  mutable updates_rx : int;
  mutable routes_in : int;
  mutable withdrawals_rx : int;
  mutable import_rejected : int;
  mutable export_rejected : int;
  mutable updates_tx : int;
}
(** The shared daemon-stats shape ({!Telemetry.daemon_stats}); {!stats}
    returns a point-in-time snapshot assembled from the registry
    counters ([bgp_*_total] with labels [daemon]/[impl="frr"]). *)

type t

val create :
  ?telemetry:Telemetry.t -> ?vmm:Xbgp.Vmm.t -> sched:Netsim.Sched.t ->
  config -> peer_conf list -> t
(** Passing [vmm] makes the daemon xBGP-compliant: every insertion point
    consults it, including the decision process. [telemetry] is the
    registry all counters land in (default: the VMM's registry when a
    VMM is given, else a fresh disabled one). *)

val start : t -> unit
(** Run extension init bytecodes, then open all sessions. *)

val originate : t -> Bgp.Prefix.t -> Bgp.Attr.t list -> unit
(** Originate a route locally with explicit attributes (e.g. a RIS feed,
    §3.2); it enters the Loc-RIB and is advertised per policy. *)

val withdraw_local : t -> Bgp.Prefix.t -> unit

val restart_sessions : t -> unit
(** Re-open any session that has fallen back to Idle (e.g. after a link
    failure healed). *)

val set_xtra : t -> string -> bytes -> unit
(** Replace (or add) one named configuration extra at runtime — how an
    operator delivers an updated ROA file or threshold to a running
    router. Init-time extension state needs {!rerun_init} afterwards. *)

val rerun_init : t -> unit
(** Re-run the extension init bytecodes against the current xtras (the
    runtime half of a configuration swap, e.g. an RPKI ROA update). *)

val refresh_exports : t -> unit
(** Re-evaluate export policy for every best route — what a daemon does
    when IGP state changes (§3.1). *)

(** {1 Introspection} *)

val loc_count : t -> int
val loc_best : t -> Bgp.Prefix.t -> route option
val best_route : t -> Bgp.Prefix.t -> route option
val best_attrs : t -> Bgp.Prefix.t -> Bgp.Attr.t list option

val loc_snapshot : t -> (Bgp.Prefix.t * Bgp.Attr.t list) list
(** Whole-Loc-RIB snapshot in the neutral codec form, sorted by prefix —
    the xBGP-visible state compared across hosts by the differential
    fuzzer. *)

val iter_loc : t -> (Bgp.Prefix.t -> route -> unit) -> unit
val stats : t -> stats
val telemetry : t -> Telemetry.t

val group_count : t -> int
(** Active update groups (0 until a peer syncs, or when [update_groups]
    is off). *)

val peer : t -> int -> peer
val peer_established : t -> int -> bool
val set_log : t -> (string -> unit) -> unit
val name : t -> string
val vmm : t -> Xbgp.Vmm.t option

(** {1 Observability: provenance, flight recorder, BMP mirror} *)

val provenance : t -> Bgp.Prefix.t -> Obs.Provenance.t option
(** Provenance of the prefix's current best route — ingress peer, the
    import chain that ran (per-bytecode verdicts, attribute mutations,
    map writes) and the decision-process disposal computed against the
    live Loc-RIB. Falls back to the last reject/withdraw record once no
    candidate is left. *)

val provenance_candidates : t -> Bgp.Prefix.t -> Obs.Provenance.t list

val provenance_snapshot : t -> (Bgp.Prefix.t * Obs.Provenance.t) list
(** One record per installed best route, sorted by prefix. *)

val set_recorder : t -> Obs.Recorder.t option -> unit
(** Attach (or detach) a flight recorder; the hook is pushed down to the
    VMM (xprog faults, native fallbacks, map evictions), the session
    FSMs (transitions) and the update-group engine (split/merge/rekey),
    while the daemon itself records route add/replace/withdraw events
    with provenance digests. *)

val recorder : t -> Obs.Recorder.t option

val set_collector : t -> Obs.Bmp.collector option -> unit
(** Attach a BMP-style (RFC 7854-inspired) monitoring collector: every
    received UPDATE is mirrored verbatim as Route Monitoring, and every
    session edge as Peer Up / Peer Down. *)

val collector : t -> Obs.Bmp.collector option

val group_details : t -> (string * int list) list
(** Update-group partition [(key, ascending member indices)] in group
    creation order — the [show update-groups] payload. *)
