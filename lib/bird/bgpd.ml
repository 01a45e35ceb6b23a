(* The BIRD-like BGP daemon: the shared pipeline over BIRD's attribute
   store.

   This host module is the paper's BIRD adapter (§2.1). Same protocol
   behaviour as the FRR-like daemon (it must be: both obey RFC 4271),
   entirely different internals:
   - attributes are generic [Eattr.set] lists kept in wire form, so xBGP
     TLV conversion is nearly free (thin adapter, as in the paper);
   - no interning: route values are plain immutable records;
   - native origin validation uses a *hash* ROA store ([Rpki.Store_hash]),
     the structure the paper credits for BIRD's fast native validation;
   - scalar attribute reads parse payloads on demand;
   - UPDATE packing groups prefixes by their serialized attribute bytes. *)

module Host = struct
  type attrs = Eattr.set
  type roa_store = Rpki.Store_hash.t

  let u32_attr code flags v = { Eattr.code; flags; payload = Eattr.u32_payload v }

  let impl = "bird"
  let store = "hash"
  let validate = Rpki.Store_hash.validate
  let of_attrs = Eattr.of_attrs
  let to_attrs = Eattr.to_attrs
  let get_tlv = Eattr.get_tlv
  let set_tlv = Eattr.set_tlv
  let remove a code = Eattr.remove_code code a
  let equal = Eattr.equal
  let set_cache_gate = Eattr.set_cache_gate
  let local_pref = Eattr.local_pref
  let as_path_len (a : attrs) = a.path_len
  let origin = Eattr.origin
  let med = Eattr.med
  let neighbor_as = Eattr.neighbor_as

  let originator_id a ~default =
    match Eattr.originator_id a with 0 -> default | oid -> oid

  let cluster_list_len = Eattr.cluster_list_len
  let next_hop = Eattr.next_hop
  let origin_as = Eattr.origin_as
  let contains_as = Eattr.contains_as
  let append_community = Eattr.append_community

  let reflection_loop a ~router_id ~cluster_id =
    Eattr.originator_id a = router_id
    ||
    match Eattr.find_code Bgp.Attr.code_cluster_list a with
    | Some e ->
      let n = String.length e.payload / 4 in
      let rec mem i =
        i < n && (Eattr.read_u32 e.payload (4 * i) = cluster_id || mem (i + 1))
      in
      mem 0
    | None -> false

  let reflect a ~src_router_id ~cluster_id =
    let a =
      if Eattr.originator_id a = 0 then
        Eattr.set_eattr a
          (u32_attr Bgp.Attr.code_originator_id Bgp.Attr.flag_optional
             src_router_id)
      else a
    in
    Eattr.prepend_cluster a cluster_id

  let next_hop_self a local_addr =
    Eattr.set_eattr a
      (u32_attr Bgp.Attr.code_next_hop Bgp.Attr.flag_transitive local_addr)

  let canonicalize_outbound a ~to_ebgp ~src_type ~local_as ~local_addr =
    if to_ebgp then begin
      let a = next_hop_self (Eattr.prepend_as a local_as) local_addr in
      let a = Eattr.remove_code Bgp.Attr.code_local_pref a in
      let a =
        if src_type = Pipeline.Common.src_ebgp then
          Eattr.remove_code Bgp.Attr.code_med a
        else a
      in
      let a = Eattr.remove_code Bgp.Attr.code_originator_id a in
      Eattr.remove_code Bgp.Attr.code_cluster_list a
    end
    else
      let a =
        if src_type = Pipeline.Common.src_ibgp then a
        else next_hop_self a local_addr
      in
      Eattr.set_eattr a
        (u32_attr Bgp.Attr.code_local_pref Bgp.Attr.flag_transitive
           (Eattr.local_pref a))

  (* the serialized attribute bytes are the grouping key *)
  type group_key = string

  module Key_tbl = Hashtbl.Make (String)

  let group_key a = Bytes.to_string (Eattr.encode_known a)
  let encode buf _ key = Buffer.add_string buf key
end

include Pipeline.Make (Host)
