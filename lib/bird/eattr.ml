(* BIRD-style attribute storage.

   BIRD keeps route attributes as a generic list of `eattr` records whose
   payloads stay in (or very near) wire form, with one flexible API over
   all of them — which is why the paper's BIRD xBGP adapter was thinner
   than FRRouting's (§2.1: "BIRD includes a flexible API to manage BGP
   attributes. xBGP simply extends this API").

   Consequences faithfully reproduced here:
   - converting to/from the neutral xBGP TLV is nearly free (the payload
     *is* the network-byte-order wire payload);
   - any attribute code, standard or not, is carried uniformly — but the
     native UPDATE parser still only admits codes it knows (so the GeoLoc
     use case behaves the same on both hosts), and the native encoder
     only emits known codes;
   - scalar readers parse the payload on each access (with the small
     per-route cache BIRD keeps for hot fields, we cache only the AS-path
     length). *)

type t = { code : int; flags : int; payload : string }

(** An attribute set: eattrs sorted by code, unique per code.

    The two memo fields cache this set's neutral conversions (the
    BIRD-side symmetric of the FRR conversion cache). They are sound by
    construction: [eattrs] is immutable and every mutation API builds a
    {e new} record whose memos start empty, so a memo can only ever
    describe the eattrs it sits next to. [equal] ignores them. *)
type set = {
  eattrs : t list;
  path_len : int;  (** cached AS-path length *)
  mutable memo_attrs : Bgp.Attr.t list option;
      (** cached [to_attrs] (the neutral snapshot) *)
  mutable memo_encoded : bytes option;  (** cached [encode_known] *)
}

let rec insert_sorted (e : t) = function
  | [] -> [ e ]
  | x :: rest when x.code = e.code -> e :: rest
  | x :: rest when x.code > e.code -> e :: x :: rest
  | x :: rest -> x :: insert_sorted e rest

let find_code code set =
  List.find_opt (fun (e : t) -> e.code = code) set.eattrs

(* --- payload readers (network byte order) --- *)

let read_u32 s off =
  ((Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3])

let u32_payload v =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (v land 0xFFFFFFFF));
  Bytes.to_string b

(** Walk an AS_PATH payload: segment length counting a SET as 1. *)
let path_length_of_payload s =
  let n = String.length s in
  let rec go off acc =
    if off + 2 > n then acc
    else
      let ty = Char.code s.[off] in
      let count = Char.code s.[off + 1] in
      let next = off + 2 + (4 * count) in
      if next > n then acc
      else go next (acc + if ty = 2 then count else 1)
  in
  go 0 0

(** All ASNs of an AS_PATH payload, leftmost first. *)
let path_asns_of_payload s =
  let n = String.length s in
  let rec go off acc =
    if off + 2 > n then List.rev acc
    else
      let count = Char.code s.[off + 1] in
      let next = off + 2 + (4 * count) in
      if next > n then List.rev acc
      else begin
        let rec asns i acc =
          if i = count then acc
          else asns (i + 1) (read_u32 s (off + 2 + (4 * i)) :: acc)
        in
        go next (asns 0 acc)
      end
  in
  go 0 []

let recompute_path_len eattrs =
  match List.find_opt (fun (e : t) -> e.code = Bgp.Attr.code_as_path) eattrs with
  | Some e -> path_length_of_payload e.payload
  | None -> 0

let of_eattrs eattrs =
  let eattrs = List.sort (fun (a : t) b -> compare a.code b.code) eattrs in
  {
    eattrs;
    path_len = recompute_path_len eattrs;
    memo_attrs = None;
    memo_encoded = None;
  }

let empty =
  { eattrs = []; path_len = 0; memo_attrs = None; memo_encoded = None }

let set_eattr set (e : t) =
  let eattrs = insert_sorted e set.eattrs in
  {
    eattrs;
    path_len =
      (if e.code = Bgp.Attr.code_as_path then
         path_length_of_payload e.payload
       else set.path_len);
    memo_attrs = None;
    memo_encoded = None;
  }

let remove_code code set =
  let eattrs = List.filter (fun (e : t) -> e.code <> code) set.eattrs in
  {
    eattrs;
    path_len = (if code = Bgp.Attr.code_as_path then 0 else set.path_len);
    memo_attrs = None;
    memo_encoded = None;
  }

(* --- the conversion cache toggle (mirrors Attr_intern's) --- *)

let cache_enabled = ref true

(* Driven from [Vmm.has_any_attachment] by the daemon, mirroring
   [Attr_intern.set_cache_gate]: the pure-native baseline must not pay
   for memos no extension can read. Per-set memos are kept across gate
   flips — they can never be stale. *)
let cache_gate = ref true
let cache_hits = ref 0
let cache_misses = ref 0
let set_conversion_cache b = cache_enabled := b
let set_cache_gate b = cache_gate := b
let conversion_cache_enabled () = !cache_enabled
let conversion_cache_stats () = (!cache_hits, !cache_misses)

let reset_conversion_cache_stats () =
  cache_hits := 0;
  cache_misses := 0

let invalidate_conversion set =
  set.memo_attrs <- None;
  set.memo_encoded <- None

(* --- from/to the shared wire codec --- *)

let known_codes =
  Bgp.Attr.
    [
      code_origin;
      code_as_path;
      code_next_hop;
      code_med;
      code_local_pref;
      code_atomic_aggregate;
      code_aggregator;
      code_communities;
      code_originator_id;
      code_cluster_list;
    ]

(** Admit parsed attributes into the set; unknown codes are dropped by the
    *native* parser, like the FRR-side (see module header). Flags of
    known attributes are canonicalized to their RFC defaults — stray
    flag bits on the wire must not survive into xBGP-visible state (the
    record-based host re-derives flags, so keeping them here would make
    the two hosts diverge on exactly the malformed input). *)
let of_attrs (attrs : Bgp.Attr.t list) =
  let eattrs =
    List.filter_map
      (fun (a : Bgp.Attr.t) ->
        let code = Bgp.Attr.code a in
        if List.mem code known_codes then
          Some
            {
              code;
              flags = Bgp.Attr.default_flags a.value;
              payload = Bytes.to_string (Bgp.Attr.encode_payload a.value);
            }
        else None)
      attrs
  in
  of_eattrs eattrs

(** Decode to the shared codec type (known codes only) for the native
    encoder. @raise Bgp.Attr.Parse_error on corrupt payloads. *)
let to_attrs_fresh set : Bgp.Attr.t list =
  List.filter_map
    (fun (e : t) ->
      if List.mem e.code known_codes then
        Some
          (Bgp.Attr.decode_payload ~code:e.code ~flags:e.flags
             (Bytes.of_string e.payload))
      else None)
    set.eattrs

let to_attrs set =
  if (not !cache_enabled) || not !cache_gate then to_attrs_fresh set
  else
    match set.memo_attrs with
    | Some l ->
      incr cache_hits;
      l
    | None ->
      incr cache_misses;
      let l = to_attrs_fresh set in
      set.memo_attrs <- Some l;
      l

(* --- the xBGP adapter: near-zero-cost TLV conversion --- *)

let get_tlv set code =
  match find_code code set with
  | None -> None
  | Some e ->
    let len = String.length e.payload in
    let b = Bytes.create (4 + len) in
    Bytes.set_uint8 b 0 e.flags;
    Bytes.set_uint8 b 1 e.code;
    Bytes.set_uint16_be b 2 len;
    Bytes.blit_string e.payload 0 b 4 len;
    Some b

(** Install an attribute straight from the neutral TLV — the payload is
    stored as-is, no parsing. A malformed TLV raises the same exception
    as [Bgp.Attr.of_tlv], the FRR-side adapter's parser. *)
let set_tlv set tlv =
  let malformed m = raise (Bgp.Attr.Parse_error ("Eattr.set_tlv: " ^ m)) in
  if Bytes.length tlv < 4 then malformed "short TLV";
  let flags = Bytes.get_uint8 tlv 0 in
  let code = Bytes.get_uint8 tlv 1 in
  let len = Bytes.get_uint16_be tlv 2 in
  if Bytes.length tlv < 4 + len then malformed "truncated";
  set_eattr set { code; flags; payload = Bytes.sub_string tlv 4 len }

(* --- scalar accessors (parse on demand) --- *)

let u32_attr code default set =
  match find_code code set with
  | Some e when String.length e.payload = 4 -> read_u32 e.payload 0
  | _ -> default

let origin set =
  match find_code Bgp.Attr.code_origin set with
  | Some e when String.length e.payload = 1 -> Char.code e.payload.[0]
  | _ -> 2

let next_hop set = u32_attr Bgp.Attr.code_next_hop 0 set
let med set = u32_attr Bgp.Attr.code_med 0 set
let local_pref set = u32_attr Bgp.Attr.code_local_pref 100 set
let originator_id set = u32_attr Bgp.Attr.code_originator_id 0 set

let cluster_list_len set =
  match find_code Bgp.Attr.code_cluster_list set with
  | Some e -> String.length e.payload / 4
  | None -> 0

let path_asns set =
  match find_code Bgp.Attr.code_as_path set with
  | Some e -> path_asns_of_payload e.payload
  | None -> []

let neighbor_as set = match path_asns set with a :: _ -> a | [] -> 0

let origin_as set =
  match List.rev (path_asns set) with a :: _ -> Some a | [] -> None

let contains_as set asn = List.mem asn (path_asns set)

(** Prepend an ASN to the AS_PATH, working directly on the wire payload
    (extending a leading AS_SEQUENCE when below 255 hops). *)
let prepend_as set asn =
  let payload =
    match find_code Bgp.Attr.code_as_path set with
    | Some e -> e.payload
    | None -> ""
  in
  let new_payload =
    let n = String.length payload in
    if n >= 2 && Char.code payload.[0] = 2 && Char.code payload.[1] < 255 then begin
      (* extend leading AS_SEQUENCE *)
      let b = Bytes.create (n + 4) in
      Bytes.set_uint8 b 0 2;
      Bytes.set_uint8 b 1 (Char.code payload.[1] + 1);
      Bytes.blit_string (u32_payload asn) 0 b 2 4;
      Bytes.blit_string payload 2 b 6 (n - 2);
      Bytes.to_string b
    end
    else begin
      let b = Bytes.create (n + 6) in
      Bytes.set_uint8 b 0 2;
      Bytes.set_uint8 b 1 1;
      Bytes.blit_string (u32_payload asn) 0 b 2 4;
      Bytes.blit_string payload 0 b 6 n;
      Bytes.to_string b
    end
  in
  set_eattr set
    {
      code = Bgp.Attr.code_as_path;
      flags = Bgp.Attr.flag_transitive;
      payload = new_payload;
    }

(** Prepend a cluster id to the CLUSTER_LIST payload. *)
let prepend_cluster set cid =
  let old =
    match find_code Bgp.Attr.code_cluster_list set with
    | Some e -> e.payload
    | None -> ""
  in
  set_eattr set
    {
      code = Bgp.Attr.code_cluster_list;
      flags = Bgp.Attr.flag_optional;
      payload = u32_payload cid ^ old;
    }

(** Append a community value to the COMMUNITY payload. *)
let append_community set c =
  let old =
    match find_code Bgp.Attr.code_communities set with
    | Some e -> e.payload
    | None -> ""
  in
  set_eattr set
    {
      code = Bgp.Attr.code_communities;
      flags = Bgp.Attr.flag_optional lor Bgp.Attr.flag_transitive;
      payload = old ^ u32_payload c;
    }

(** Serialized wire form of the whole set (message grouping key and the
    native encoder input). Known codes only — see module header. The
    cached bytes are shared across calls; callers must not mutate. *)
let encode_known set =
  let fresh () =
    let buf = Buffer.create 64 in
    List.iter (Bgp.Attr.encode_into_buffer buf) (to_attrs set);
    Buffer.to_bytes buf
  in
  if (not !cache_enabled) || not !cache_gate then fresh ()
  else
    match set.memo_encoded with
    | Some b ->
      incr cache_hits;
      b
    | None ->
      incr cache_misses;
      let b = fresh () in
      set.memo_encoded <- Some b;
      b

let equal (a : set) (b : set) = a.eattrs = b.eattrs
