(* The xBGP API: the vendor-neutral contract between extension bytecode and
   any compliant BGP implementation (§2 of the paper).

   Three things live here and nowhere else, because both daemons and every
   extension program must agree on them bit-for-bit:
   - the insertion points (the green circles of Fig. 2);
   - the helper-function identifiers bytecode compiles against;
   - the in-VM layouts of the structures helpers expose, plus the return
     conventions of each insertion point.

   Scalars inside info structures are VM-native (little-endian); attribute
   payloads crossing the boundary are the *neutral* network-byte-order TLV
   of [Bgp.Attr.to_tlv]. *)

(** Insertion points — specific operations of RFC 4271 message processing
    where the VMM may substitute extension code (Fig. 2, green circles). *)
type point =
  | Bgp_init  (** once, when the manifest is loaded *)
  | Bgp_receive_message  (** 1: raw UPDATE just received *)
  | Bgp_inbound_filter  (** 2: import policy on one route *)
  | Bgp_decision  (** 3: compare two candidate routes *)
  | Bgp_outbound_filter  (** 4: export policy on one route *)
  | Bgp_encode_message  (** 5: UPDATE serialization for a peer *)

let all_points =
  [
    Bgp_init;
    Bgp_receive_message;
    Bgp_inbound_filter;
    Bgp_decision;
    Bgp_outbound_filter;
    Bgp_encode_message;
  ]

let num_points = 6

(** Dense index of a point, for array-indexed dispatch tables
    ([0 .. num_points - 1], in [all_points] order). *)
let point_index = function
  | Bgp_init -> 0
  | Bgp_receive_message -> 1
  | Bgp_inbound_filter -> 2
  | Bgp_decision -> 3
  | Bgp_outbound_filter -> 4
  | Bgp_encode_message -> 5

let point_name = function
  | Bgp_init -> "BGP_INIT"
  | Bgp_receive_message -> "BGP_RECEIVE_MESSAGE"
  | Bgp_inbound_filter -> "BGP_INBOUND_FILTER"
  | Bgp_decision -> "BGP_DECISION"
  | Bgp_outbound_filter -> "BGP_OUTBOUND_FILTER"
  | Bgp_encode_message -> "BGP_ENCODE_MESSAGE"

let point_of_name s =
  List.find_opt (fun p -> point_name p = s) all_points

let pp_point ppf p = Fmt.string ppf (point_name p)

(* --- return conventions --- *)

(** Inbound/outbound filters: accept and hand the (possibly modified)
    route on, or reject it. [next()] instead defers to the next bytecode
    (ultimately the host's native policy). *)
let filter_accept = 0L

let filter_reject = 1L

(** [Bgp_decision]: pick the first candidate, the second, or declare a
    tie — on a tie (or next()/fault) the host's native decision process
    decides. *)
let decision_tie = 0L

let decision_first = 1L
let decision_second = 2L

(** Generic success/failure for the message-level points. *)
let ret_ok = 0L

let ret_error = -1L

(* --- session types, as seen in peer_info --- *)

let ebgp_session = 1
let ibgp_session = 2

(* --- helper identifiers (the CALL immediates) --- *)

let h_next = 1
let h_get_arg = 2
let h_arg_len = 3
let h_get_peer_info = 4
let h_get_nexthop = 5
let h_get_attr = 6
let h_set_attr = 7
let h_add_attr = 8
let h_remove_attr = 9
let h_get_xtra = 10
let h_write_buf = 11
let h_memalloc = 12
let h_print = 13
let h_htonl = 14
let h_htons = 15
let h_map_lookup = 16
let h_map_update = 17
let h_map_delete = 18
let h_rib_add = 19
let h_log_int = 20

let helper_name = function
  | 1 -> "next"
  | 2 -> "get_arg"
  | 3 -> "arg_len"
  | 4 -> "get_peer_info"
  | 5 -> "get_nexthop"
  | 6 -> "get_attr"
  | 7 -> "set_attr"
  | 8 -> "add_attr"
  | 9 -> "remove_attr"
  | 10 -> "get_xtra"
  | 11 -> "write_buf"
  | 12 -> "ebpf_memalloc"
  | 13 -> "ebpf_print"
  | 14 -> "bpf_htonl"
  | 15 -> "bpf_htons"
  | 16 -> "map_lookup"
  | 17 -> "map_update"
  | 18 -> "map_delete"
  | 19 -> "add_route_to_rib"
  | 20 -> "log_int"
  | n -> Printf.sprintf "helper_%d" n

let helper_of_name s =
  let rec go = function
    | 0 -> None
    | n -> if helper_name n = s then Some n else go (n - 1)
  in
  go 20

let all_helpers = List.init 20 (fun i -> i + 1)

(* --- peer_info structure: 32 bytes, little-endian u32 fields --- *)

let peer_info_size = 32
(* [ebgp_session] or [ibgp_session] *)
let pi_peer_type = 0
let pi_peer_as = 4
let pi_peer_router_id = 8
let pi_peer_addr = 12
let pi_local_as = 16
let pi_local_router_id = 20
let pi_cluster_id = 24
let pi_rr_client = 28  (* 1 when the peer is a route-reflector client *)

(* --- nexthop structure: 8 bytes --- *)

let nexthop_size = 8
let nh_addr = 0
(* 0xFFFFFFFF when unreachable *)
let nh_igp_metric = 4

let igp_unreachable = 0xFFFFFFFF

(* --- blob structure returned by get_arg / get_xtra: u32 length
       followed by the payload bytes. A get_arg blob is a copy in the
       ephemeral heap; a get_xtra blob is mapped read-only (a program
       that wants to edit one copies it first). map_lookup is NOT a blob: it
       returns the raw value bytes (the length is the map's declared
       value_size, known statically to the bytecode) --- *)

let blob_header_size = 4

(* --- well-known argument ids per insertion point --- *)

(** [Bgp_receive_message] / [Bgp_encode_message]: the raw UPDATE body. *)
let arg_update_payload = 1

(** Filter points: the route's prefix as 5 bytes (u32 addr BE, u8 len). *)
let arg_prefix = 2

(** [Bgp_decision]: candidate route handles (opaque u32). *)
let arg_candidate_a = 3

let arg_candidate_b = 4

(** Filter points: where the route was learned — 20 bytes of little-endian
    u32 fields: peer_type (0 when locally originated), router_id, addr,
    rr_client, is_local. *)
let arg_source = 5

(* candidate summary exposed at [Bgp_decision]: 32 bytes of little-endian
   u32 fields *)
let cd_local_pref = 0
let cd_as_path_len = 4
let cd_origin = 8
let cd_med = 12
let cd_igp_metric = 16
let cd_originator_id = 20
let cd_peer_addr = 24
let cd_is_ebgp = 28
let candidate_size = 32

let src_peer_type = 0
let src_router_id = 4
let src_addr = 8
let src_rr_client = 12
let src_is_local = 16
let source_size = 20

(* --- memory map of a VM run (region base addresses) --- *)

let heap_base = 0x2000_0000L  (** ephemeral, freed after each run *)

let scratch_base = 0x4000_0000L  (** persistent, shared per xBGP program *)

let xtra_base = 0x6000_0000L
(** read-only [get_xtra] blobs, mapped per call and unmapped after the run *)
