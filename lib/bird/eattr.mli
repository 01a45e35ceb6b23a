(** BIRD-style attribute storage: a generic list of [eattr] records whose
    payloads stay in wire form, with one flexible API over all of them —
    why the paper's BIRD xBGP adapter was the thinner one (§2.1: "BIRD
    includes a flexible API to manage BGP attributes. xBGP simply extends
    this API").

    Consequences reproduced here: converting to/from the neutral TLV is
    nearly free (the payload {e is} the network-byte-order payload), any
    code is carried uniformly, and scalar readers parse the payload on
    access (only the AS-path length is cached). *)

type t = { code : int; flags : int; payload : string }

(** An attribute set: eattrs sorted by code, unique per code. The memo
    fields cache this set's neutral conversions ({!to_attrs},
    {!encode_known}); they are sound by construction — every mutation
    API returns a {e new} record with empty memos — and {!equal} ignores
    them. *)
type set = {
  eattrs : t list;
  path_len : int;  (** cached AS-path length *)
  mutable memo_attrs : Bgp.Attr.t list option;
  mutable memo_encoded : bytes option;
}

val empty : set
val of_eattrs : t list -> set
val set_eattr : set -> t -> set
val remove_code : int -> set -> set
val find_code : int -> set -> t option
val equal : set -> set -> bool

(** {1 Wire payload helpers} *)

val read_u32 : string -> int -> int
val u32_payload : int -> string
val path_length_of_payload : string -> int
val path_asns_of_payload : string -> int list

(** {1 From/to the shared codec} *)

val of_attrs : Bgp.Attr.t list -> set
(** Admit parsed attributes; unknown codes are dropped by the native
    parser (see module header). *)

val to_attrs : set -> Bgp.Attr.t list
(** Known codes only, for the native encoder.
    @raise Bgp.Attr.Parse_error on corrupt payloads. *)

val encode_known : set -> bytes
(** Serialized wire form of the known attributes — the message-grouping
    key and native encoder input. With the cache enabled the bytes are
    shared across calls on the same set; treat them as read-only. *)

(** {1 The conversion cache} (the BIRD-side symmetric of
    [Attr_intern]'s) *)

val set_conversion_cache : bool -> unit
(** Enable/disable memo use (enabled by default). Existing memos are
    kept but ignored while disabled — they can never be stale. *)

val set_cache_gate : bool -> unit
(** The attachment gate (default on), mirroring
    [Attr_intern.set_cache_gate]: lowered by the daemon while its VMM
    has no attachment anywhere, so the native baseline skips memo
    bookkeeping. Memos are kept across gate flips — they can never be
    stale. *)

val conversion_cache_enabled : unit -> bool

val conversion_cache_stats : unit -> int * int
(** [(hits, misses)] since {!reset_conversion_cache_stats}. *)

val reset_conversion_cache_stats : unit -> unit

val invalidate_conversion : set -> unit
(** Drop one set's memos (for hosts mutating out of band). *)

(** {1 The xBGP adapter} — near-zero-cost TLV conversion *)

val get_tlv : set -> int -> bytes option
val set_tlv : set -> bytes -> set
(** @raise Bgp.Attr.Parse_error on a TLV shorter than its 4-byte header
    or with a truncated payload. *)

(** {1 Scalar accessors} (parse on demand) *)

val origin : set -> int
val next_hop : set -> int
val med : set -> int
val local_pref : set -> int
val originator_id : set -> int
val cluster_list_len : set -> int
val path_asns : set -> int list
val neighbor_as : set -> int
val origin_as : set -> int option
val contains_as : set -> int -> bool

(** {1 Wire-level mutations} *)

val prepend_as : set -> int -> set
(** Extend the leading AS_SEQUENCE directly in the payload. *)

val prepend_cluster : set -> int -> set
val append_community : set -> int -> set
