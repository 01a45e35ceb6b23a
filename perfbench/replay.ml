(* Layer replays: each one times a layer's public functions, called by
   themselves on the DUT inputs and outputs recorded in one repetition,
   and reports nanoseconds and minor-heap words per route (per event on
   churn-ov). Together they say which share of the DUT's busy time each
   layer takes; what they miss is reported as the unattributed share. *)

(* The host's attribute representation behind the xBGP adapter: FRR's
   interned records or BIRD's wire-form eattrs. *)
type 'a host = {
  build : Bgp.Attr.t list -> 'a;
  get_tlv : 'a -> int -> bytes option;
  set_tlv : 'a -> bytes -> 'a;
  remove : 'a -> int -> 'a;
  encode : 'a -> bytes;  (** the native encoder's attribute bytes *)
  next_hop : 'a -> int;
  view : 'a Rib.Decision.view;
  reset : unit -> unit;  (** fresh-process attribute state *)
}

let frr : Frrouting.Attr_intern.t host =
  let module A = Frrouting.Attr_intern in
  {
    build = A.of_attrs;
    get_tlv = A.get_tlv;
    set_tlv = A.set_tlv;
    remove = A.remove;
    encode =
      (fun a ->
        let buf = Buffer.create 64 in
        List.iter (Bgp.Attr.encode_into_buffer buf) (A.to_attrs a);
        Buffer.to_bytes buf);
    next_hop = (fun a -> a.next_hop);
    view =
      {
        local_pref = A.local_pref_or_default;
        as_path_len = (fun a -> a.as_path_len);
        origin = (fun a -> a.origin);
        med = A.med_or_default;
        neighbor_as = A.neighbor_as;
        is_ebgp = (fun _ -> true);
        igp_cost = (fun _ -> 0);
        originator_id = (fun a -> Option.value ~default:Gen.feeder_addr a.originator_id);
        cluster_list_len = (fun a -> List.length a.cluster_list);
        peer_addr = (fun _ -> Gen.feeder_addr);
      };
    reset = A.reset_intern_table;
  }

let bird : Bird.Eattr.set host =
  let module E = Bird.Eattr in
  {
    build = E.of_attrs;
    get_tlv = E.get_tlv;
    set_tlv = E.set_tlv;
    remove = (fun a code -> E.remove_code code a);
    encode = E.encode_known;
    next_hop = E.next_hop;
    view =
      {
        local_pref = E.local_pref;
        as_path_len = (fun a -> a.path_len);
        origin = E.origin;
        med = E.med;
        neighbor_as = E.neighbor_as;
        is_ebgp = (fun _ -> true);
        igp_cost = (fun _ -> 0);
        originator_id =
          (fun a -> match E.originator_id a with 0 -> Gen.feeder_addr | o -> o);
        cluster_list_len = E.cluster_list_len;
        peer_addr = (fun _ -> Gen.feeder_addr);
      };
    reset = (fun () -> ());
  }

(* What one repetition recorded: the feeder's UPDATEs into the DUT, and
   the frames each receiver got out of it, for the measured phase. *)
type recording = {
  inputs : Bgp.Message.update array;
  outputs : bytes array array;  (** per receiver *)
  units : int;  (** routes (table workloads) or events (churn-ov) *)
}

type result = { layer : string; ns : float; words : float }

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Median over [reps] passes of one replay, per unit. [prepare] builds
   the pass's untimed state. *)
let time ~reps ~units layer prepare go =
  let ns = Array.make reps 0. and words = Array.make reps 0. in
  for i = 0 to reps - 1 do
    let s = prepare () in
    Gc.minor ();
    let mw0 = Gc.minor_words () in
    let t0 = Dut.now_ns () in
    go s;
    ns.(i) <- float_of_int (Dut.now_ns () - t0);
    words.(i) <- Gc.minor_words () -. mw0
  done;
  let u = float_of_int units in
  { layer; ns = median ns /. u; words = median words /. u }

let announcements inputs =
  Array.of_list
    (List.filter (fun (u : Bgp.Message.update) -> u.nlri <> []) (Array.to_list inputs))

let peer_info ~ebgp ~asn ~addr ~rr_client =
  {
    Xbgp.Host_intf.peer_type =
      (if ebgp then Xbgp.Api.ebgp_session else Xbgp.Api.ibgp_session);
    peer_as = asn;
    peer_router_id = addr;
    peer_addr = addr;
    local_as = Gen.dut_as;
    local_router_id = Gen.dut_addr;
    cluster_id = Gen.dut_addr;
    rr_client;
  }

let prefix_arg p =
  let b = Bytes.create 5 in
  Bytes.set_int32_be b 0 (Int32.of_int (Bgp.Prefix.addr p));
  Bytes.set_uint8 b 4 (Bgp.Prefix.len p);
  b

let run (type a) (h : a host) (inp : Gen.t) (r : recording) ~reps =
  let w = inp.w in
  let ebgp = Gen.ov w in
  let units = r.units in
  let time l = time ~reps ~units l in
  let anns = announcements r.inputs in
  let built () =
    h.reset ();
    Array.map (fun (u : Bgp.Message.update) -> (u, h.build u.attrs)) anns
  in
  let frames =
    Array.map
      (fun u -> Bgp.Message.encode (Bgp.Message.Update u))
      r.inputs
  in
  let decode =
    time "bgp.decode" ignore (fun () ->
        Array.iter (fun f -> ignore (Bgp.Message.decode f)) frames)
  in
  let out_updates () =
    h.reset ();
    Array.map
      (Array.map (fun f ->
           match Bgp.Message.decode f with
           | Bgp.Message.Update u ->
             (u, if u.nlri = [] then None else Some (h.build u.attrs))
           | _ -> failwith "perfbench: non-UPDATE output frame"))
      r.outputs
  in
  let encode =
    time "bgp.encode" out_updates
      (Array.iter
         (Array.iter (fun ((u : Bgp.Message.update), a) ->
              let attr_bytes = match a with Some a -> h.encode a | None -> Bytes.empty in
              ignore
                (Bgp.Message.split_update_raw ~withdrawn:u.withdrawn ~attr_bytes
                   ~nlri:u.nlri))))
  in
  let attrs_build =
    time "attrs.build" h.reset (fun () ->
        Array.iter (fun (u : Bgp.Message.update) -> ignore (h.build u.attrs)) anns)
  in
  let codes =
    if ebgp then [ Bgp.Attr.code_as_path; Bgp.Attr.code_communities ]
    else [ Bgp.Attr.code_originator_id; Bgp.Attr.code_cluster_list ]
  in
  let attrs_tlv =
    time "attrs.tlv" built
      (Array.iter (fun (_, a) -> List.iter (fun c -> ignore (h.get_tlv a c)) codes))
  in
  (* A replay VMM from the same manifest, initialised with the same ROA
     file; its ops are backed by the host adapter, as in the daemons. *)
  let vmm =
    if ebgp then Dut.ov_vmm inp ~host:"replay" ()
    else
      Xprogs.Registry.vmm_of_manifest ~engine:Ebpf.Vm.Interpreted
        ~host:"replay" Xprogs.Route_reflector.manifest
  in
  let get_xtra k = if k = "roa_table" then Some inp.roa_blob else None in
  Xbgp.Vmm.run_init vmm ~ops:{ Xbgp.Host_intf.null_ops with get_xtra };
  let route = ref (h.build []) in
  let ops info =
    {
      Xbgp.Host_intf.null_ops with
      peer_info = (fun () -> Some info);
      nexthop = (fun () -> Some (h.next_hop !route, 0));
      get_attr = (fun code -> h.get_tlv !route code);
      set_attr =
        (fun tlv ->
          match h.set_tlv !route tlv with
          | a ->
            route := a;
            true
          | exception _ -> false);
      remove_attr =
        (fun code ->
          route := h.remove !route code;
          true);
      get_xtra;
    }
  in
  let feeder =
    ops
      (peer_info ~ebgp ~asn:(Gen.feeder_as w) ~addr:Gen.feeder_addr
         ~rr_client:(not ebgp))
  in
  let receivers =
    Array.init w.receivers (fun k ->
        let i = k + 1 in
        ops
          (peer_info ~ebgp
             ~asn:(if ebgp then 65101 + i else Gen.dut_as)
             ~addr:(Bgp.Prefix.addr_of_quad (10, 1, 0, 2 + i))
             ~rr_client:(not ebgp)))
  in
  let args = Xbgp.Host_intf.Args.create () in
  Xbgp.Host_intf.Args.set args Xbgp.Api.arg_source
    (Xbgp.Host_intf.source_to_bytes
       {
         src_peer_type =
           (if ebgp then Xbgp.Api.ebgp_session else Xbgp.Api.ibgp_session);
         src_router_id = Gen.feeder_addr;
         src_addr = Gen.feeder_addr;
         src_rr_client = not ebgp;
         src_is_local = false;
       });
  let dispatch point ops a p =
    route := a;
    Xbgp.Host_intf.Args.set args Xbgp.Api.arg_prefix (prefix_arg p);
    ignore
      (Xbgp.Vmm.run vmm point ~ops ~args ~default:(fun () -> Xbgp.Api.filter_accept))
  in
  (* one run per UPDATE where the daemons batch, else one per prefix *)
  let batch =
    Xbgp.Vmm.batch_invariant vmm Xbgp.Api.Bgp_inbound_filter
      ~variant_args:[ Xbgp.Api.arg_prefix ]
  in
  let vmm_import =
    time "vmm.import" built
      (Array.iter (fun ((u : Bgp.Message.update), a) ->
           if batch then dispatch Xbgp.Api.Bgp_inbound_filter feeder a (List.hd u.nlri)
           else List.iter (dispatch Xbgp.Api.Bgp_inbound_filter feeder a) u.nlri))
  in
  let shared =
    Xbgp.Vmm.group_invariant vmm Xbgp.Api.Bgp_outbound_filter
      ~allow_write_buf:false
  in
  let peers = if shared then [| receivers.(0) |] else receivers in
  let vmm_export =
    time "vmm.export" built
      (Array.iter (fun ((u : Bgp.Message.update), a) ->
           List.iter
             (fun p -> Array.iter (fun o -> dispatch Xbgp.Api.Bgp_outbound_filter o a p) peers)
             u.nlri))
  in
  (* Adj-RIB-In and Loc-RIB over the recorded inputs; churn-ov starts
     from the preloaded table, untimed. *)
  let rib_update =
    let apply (adj, loc) (u : Bgp.Message.update) a =
      List.iter
        (fun p ->
          ignore (Rib.Adj_rib.clear adj ~peer:0 p);
          ignore (Rib.Loc_rib.update loc ~peer:0 p None))
        u.withdrawn;
      match a with
      | Some a ->
        List.iter
          (fun p ->
            ignore (Rib.Adj_rib.set adj ~peer:0 p a);
            ignore (Rib.Loc_rib.update loc ~peer:0 p (Some a)))
          u.nlri
      | None -> ()
    in
    time "rib.update"
      (fun () ->
        h.reset ();
        let tables = (Rib.Adj_rib.create (), Rib.Loc_rib.create h.view) in
        if not (Gen.table_workload w) then
          List.iter (fun (u : Bgp.Message.update) -> apply tables u (Some (h.build u.attrs))) inp.updates;
        ( tables,
          Array.map
            (fun (u : Bgp.Message.update) ->
              (u, if u.nlri = [] then None else Some (h.build u.attrs)))
            r.inputs ))
      (fun (tables, ins) -> Array.iter (fun (u, a) -> apply tables u a) ins)
  in
  (* Every output frame through its receiver's pipe and delivered. *)
  let deliver =
    time "netsim.deliver"
      (fun () ->
        let sched = Netsim.Sched.create () in
        let got = ref 0 in
        let ports =
          Array.map
            (fun _ ->
              let a, b = Netsim.Pipe.create sched in
              Netsim.Pipe.set_receiver b (fun c -> got := !got + Bytes.length c);
              a)
            r.outputs
        in
        (sched, ports))
      (fun (sched, ports) ->
        Array.iteri (fun k port -> Array.iter (Netsim.Pipe.send port) r.outputs.(k)) ports;
        ignore (Netsim.Sched.run sched))
  in
  [ decode; encode; attrs_build; attrs_tlv; vmm_import; vmm_export; rib_update; deliver ]
