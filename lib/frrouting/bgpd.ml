(* The FRR-like BGP daemon: the shared pipeline over FRRouting's
   attribute store.

   This host module is the paper's FRRouting adapter (§2.1). Its
   signature traits, mirroring FRRouting:
   - attributes are *interned host-byte-order records* ([Attr_intern]),
     so every xBGP API call pays a conversion to/from the neutral TLV;
   - the native parser drops unknown attributes and the native encoder
     emits only known ones;
   - native origin validation walks a dedicated ROA *trie* per check
     ([Rpki.Store_trie], §3.4);
   - UPDATE packing groups prefixes by interned identity. *)

module Host = struct
  type attrs = Attr_intern.t
  type roa_store = Rpki.Store_trie.t

  let impl = "frr"
  let store = "trie"
  let validate = Rpki.Store_trie.validate
  let of_attrs = Attr_intern.of_attrs
  let to_attrs = Attr_intern.to_attrs
  let get_tlv = Attr_intern.get_tlv
  let set_tlv = Attr_intern.set_tlv
  let remove = Attr_intern.remove
  let equal (a : attrs) b = a = b
  let set_cache_gate = Attr_intern.set_cache_gate
  let local_pref = Attr_intern.local_pref_or_default
  let as_path_len (a : attrs) = a.as_path_len
  let origin (a : attrs) = a.origin
  let med = Attr_intern.med_or_default
  let neighbor_as = Attr_intern.neighbor_as
  let originator_id (a : attrs) ~default = Option.value ~default a.originator_id
  let cluster_list_len (a : attrs) = List.length a.cluster_list
  let next_hop (a : attrs) = a.next_hop
  let origin_as = Attr_intern.origin_as
  let contains_as = Attr_intern.contains_as

  let append_community (a : attrs) tag =
    Attr_intern.intern { a with communities = a.communities @ [ tag ] }

  let reflection_loop (a : attrs) ~router_id ~cluster_id =
    (match a.originator_id with Some oid -> oid = router_id | None -> false)
    || List.mem cluster_id a.cluster_list

  let reflect (a : attrs) ~src_router_id ~cluster_id =
    let a =
      match a.originator_id with
      | Some _ -> a
      | None -> { a with originator_id = Some src_router_id }
    in
    Attr_intern.intern { a with cluster_list = cluster_id :: a.cluster_list }

  let canonicalize_outbound (a : attrs) ~to_ebgp ~src_type ~local_as
      ~local_addr =
    if to_ebgp then
      Attr_intern.intern
        {
          a with
          as_path = Bgp.Attr.as_path_prepend local_as a.as_path;
          next_hop = local_addr;
          local_pref = None;
          med = (if src_type = Pipeline.Common.src_ebgp then None else a.med);
          originator_id = None;
          cluster_list = [];
        }
    else
      Attr_intern.intern
        {
          a with
          next_hop =
            (if src_type = Pipeline.Common.src_ibgp then a.next_hop
             else local_addr);
          local_pref = Some (Attr_intern.local_pref_or_default a);
        }

  (* interning makes physical identity the grouping key *)
  type group_key = attrs

  module Key_tbl = Attr_intern.Interned_tbl

  let group_key a = a
  let encode buf a _ = List.iter (Bgp.Attr.encode_into_buffer buf) (to_attrs a)
end

include Pipeline.Make (Host)
