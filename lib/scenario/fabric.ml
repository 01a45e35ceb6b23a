(* Instantiate the Fig. 5 data-center fabric as live daemons.

   Three configurations matter for §3.3:
   - [`Plain]    distinct ASNs, no filter: valleys are accepted;
   - [`Same_as]  the duplicate-ASN configuration trick (S1/S2 share an
                 AS, leaf pairs share ASes): valleys are blocked by
                 ordinary loop prevention, but double failures partition
                 the fabric;
   - [`Xbgp]     distinct ASNs + the valley_free extension on every
                 router: valleys blocked for external prefixes, recovery
                 paths for fabric-internal prefixes allowed. *)

type config = [ `Plain | `Same_as | `Xbgp ]

type t = {
  sched : Netsim.Sched.t;
  clos : Dataset.Clos.t;
  daemons : (string * Daemon.t) list;
  pipes : ((string * string) * (Netsim.Pipe.port * Netsim.Pipe.port)) list;
}

let hold_time = 9 (* short hold: failure scenarios converge quickly *)

let build ?(host : Testbed.host = `Frr) ?(with_transit = false)
    ?(engine = Ebpf.Vm.Interpreted) ?telemetry ?(batch_updates = true)
    ?(update_groups = true) (config : config) : t =
  let clos =
    Dataset.Clos.fig5 ~with_transit ~same_spine_as:(config = `Same_as) ()
  in
  Frrouting.Attr_intern.reset_intern_table ();
  let sched = Netsim.Sched.create () in
  let telemetry =
    match telemetry with
    | Some t -> t
    | None -> Telemetry.create ~enabled:false ()
  in
  Telemetry.set_clock_us telemetry (fun () -> Netsim.Sched.now sched);
  let pipes =
    List.map
      (fun ((a, b) as link) ->
        ( link,
          Netsim.Pipe.create ~telemetry
            ~name:(Printf.sprintf "%s-%s" a b)
            sched ))
      clos.links
  in
  (* peer configurations per router *)
  let ports_of name =
    List.filter_map
      (fun (((a, b) as link), (pa, pb)) ->
        if a = name then Some (link, b, pa)
        else if b = name then Some (link, a, pb)
        else None)
      pipes
  in
  let xtras =
    if config = `Xbgp then
      [
        ("vf_pairs", Xprogs.Util.encode_as_pairs clos.vf_pairs);
        ("vf_internal", Xprogs.Util.encode_asn_list clos.internal_asns);
      ]
    else []
  in
  let daemons =
    List.map
      (fun (r : Dataset.Clos.router) ->
        let peers = ports_of r.rname in
        let vmm =
          if config = `Xbgp then
            Some
              (Xprogs.Registry.vmm_of_manifest ~engine ~telemetry
                 ~host:r.rname Xprogs.Valley_free.manifest)
          else None
        in
        let daemon =
          match Daemon.host host with
          | Daemon.Host ((module D), wrap) ->
            wrap
              (D.create ~telemetry ?vmm ~sched
                 (D.config ~name:r.rname ~router_id:r.router_id
                    ~local_as:r.asn ~local_addr:r.addr ~hold_time
                    ~batch_updates ~update_groups ~xtras ())
                 (List.map
                    (fun (_, other, port) ->
                      let o = Dataset.Clos.router clos other in
                      {
                        Pipeline.Common.pname = other;
                        remote_as = o.asn;
                        remote_addr = o.addr;
                        rr_client = false;
                        port;
                      })
                    peers))
        in
        (r.rname, daemon))
      clos.routers
  in
  { sched; clos; daemons; pipes }

let daemon t name = List.assoc name t.daemons

(* One recorder for the whole fabric: events carry the daemon name, and
   the shared simulated clock keeps the stream totally ordered. *)
let attach_recorder t rc =
  Obs.Recorder.set_clock rc (fun () -> Netsim.Sched.now t.sched);
  List.iter (fun (_, d) -> Daemon.set_recorder d (Some rc)) t.daemons

let attach_collector t name col = Daemon.set_collector (daemon t name) (Some col)

(** Start every daemon; every router originates its prefix. *)
let start t =
  List.iter (fun (_, d) -> Daemon.start d) t.daemons;
  List.iter
    (fun (r : Dataset.Clos.router) ->
      Daemon.originate (daemon t r.rname)
          (Dataset.Clos.originated_prefix r)
          [
            Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
            Bgp.Attr.v (Bgp.Attr.As_path []);
            Bgp.Attr.v (Bgp.Attr.Next_hop r.addr);
          ])
    t.clos.routers

(** Advance simulated time by [seconds]. *)
let settle t seconds =
  ignore (Netsim.Sched.run ~until:(Netsim.Sched.now t.sched + (seconds * 1_000_000)) t.sched)

(** Fail the link [a]--[b]; sessions notice via their hold timers. *)
let fail_link t a b =
  match
    List.assoc_opt (a, b) t.pipes
    |> (function None -> List.assoc_opt (b, a) t.pipes | some -> some)
  with
  | Some (pa, _) -> Netsim.Pipe.set_up pa false
  | None -> invalid_arg (Printf.sprintf "Fabric.fail_link: no link %s-%s" a b)

(** Repair the link [a]--[b] and re-open the sessions that died. *)
let repair_link t a b =
  (match
     List.assoc_opt (a, b) t.pipes
     |> function None -> List.assoc_opt (b, a) t.pipes | some -> some
   with
  | Some (pa, _) -> Netsim.Pipe.set_up pa true
  | None -> invalid_arg (Printf.sprintf "Fabric.repair_link: no link %s-%s" a b));
  List.iter (fun (_, d) -> Daemon.restart_sessions d) t.daemons

(** Does [router] currently hold a route towards [target]'s prefix? *)
let reaches t router target =
  let r = Dataset.Clos.router t.clos target in
  Daemon.has_route (daemon t router) (Dataset.Clos.originated_prefix r)

let path t router target =
  let r = Dataset.Clos.router t.clos target in
  Daemon.best_path (daemon t router) (Dataset.Clos.originated_prefix r)
