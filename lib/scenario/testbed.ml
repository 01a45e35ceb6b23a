(* The three-router testbed of Fig. 3: upstream — DUT — downstream.

   As in the paper, the upstream and downstream routers always run the
   FRR-like daemon; the Device Under Test runs either host, natively or
   with extension bytecode loaded. Sessions on links L1/L2 are iBGP for
   the route-reflection experiment (§3.2) and eBGP for origin validation
   (§3.4). *)

type host = [ `Frr | `Bird ]

type mode = {
  host : host;
  ibgp : bool;
  manifest : Xbgp.Manifest.t option;  (** extension config for the DUT *)
  native_rr : bool;
  native_ov_roas : Rpki.Roa.t list option;
  xtras : (string * bytes) list;  (** DUT configuration extras *)
  hold_time : int;
  engine : Ebpf.Vm.engine;  (** eBPF engine for the DUT's extensions *)
  telemetry : Telemetry.t option;
      (** shared registry for the whole deployment; None = disabled *)
  batch_updates : bool;
      (** batched NLRI processing in every daemon (false = the legacy
          per-prefix path, the dispatch-bench baseline) *)
  update_groups : bool;
      (** update-group export in every daemon (false = the legacy
          per-peer export path, the fan-out baseline) *)
}

let mode ?(host = `Frr) ?(ibgp = true) ?manifest ?(native_rr = false)
    ?native_ov_roas ?(xtras = []) ?(hold_time = 90)
    ?(engine = Ebpf.Vm.Interpreted) ?telemetry ?(batch_updates = true)
    ?(update_groups = true) () =
  {
    host;
    ibgp;
    manifest;
    native_rr;
    native_ov_roas;
    xtras;
    hold_time;
    engine;
    telemetry;
    batch_updates;
    update_groups;
  }

type t = {
  sched : Netsim.Sched.t;
  upstream : Frrouting.Bgpd.t;
  dut : Daemon.t;
  downstream : Frrouting.Bgpd.t;
  dut_vmm : Xbgp.Vmm.t option;
  telemetry : Telemetry.t;
}

let addr = Bgp.Prefix.addr_of_quad

let peer ?(rr_client = false) name remote_as remote_addr port =
  { Pipeline.Common.pname = name; remote_as; remote_addr; rr_client; port }

let create (m : mode) : t =
  (* fresh-process semantics: a new testbed means new daemons *)
  Frrouting.Attr_intern.reset_intern_table ();
  let sched = Netsim.Sched.create () in
  let telemetry =
    match m.telemetry with
    | Some t -> t
    | None -> Telemetry.create ~enabled:false ()
  in
  (* the scheduler clock is the trace timebase: deterministic under
     simulation, so traces of the same scenario are identical *)
  Telemetry.set_clock_us telemetry (fun () -> Netsim.Sched.now sched);
  let dut_as = 65000 in
  let up_as = if m.ibgp then 65000 else 65001 in
  let down_as = if m.ibgp then 65000 else 65002 in
  let up_addr = addr (10, 0, 0, 1)
  and dut_addr = addr (10, 0, 0, 2)
  and down_addr = addr (10, 0, 0, 3) in
  let l1_up, l1_dut = Netsim.Pipe.create ~telemetry ~name:"L1" sched in
  let l2_dut, l2_down = Netsim.Pipe.create ~telemetry ~name:"L2" sched in
  let upstream =
    Frrouting.Bgpd.create ~telemetry ~sched
      (Frrouting.Bgpd.config ~name:"upstream" ~router_id:up_addr
         ~local_as:up_as ~local_addr:up_addr ~hold_time:m.hold_time
         ~batch_updates:m.batch_updates ~update_groups:m.update_groups ())
      [ peer "dut" dut_as dut_addr l1_up ]
  in
  let downstream =
    Frrouting.Bgpd.create ~telemetry ~sched
      (Frrouting.Bgpd.config ~name:"downstream" ~router_id:down_addr
         ~local_as:down_as ~local_addr:down_addr ~hold_time:m.hold_time
         ~batch_updates:m.batch_updates ~update_groups:m.update_groups ())
      [ peer "dut" dut_as dut_addr l2_down ]
  in
  let dut_vmm =
    Option.map
      (fun manifest ->
        Xprogs.Registry.vmm_of_manifest ~engine:m.engine ~telemetry
          ~host:"dut" manifest)
      m.manifest
  in
  (* the DUT: either host's pipeline, over that host's ROA store *)
  let dut_on (type d r)
      (module D : Pipeline.S with type t = d and type roa_store = r)
      (wrap : d -> Daemon.t) (roa_store : Rpki.Roa.t list -> r) =
    wrap
      (D.create ~telemetry ?vmm:dut_vmm ~sched
         (D.config ~name:"dut" ~router_id:dut_addr ~local_as:dut_as
            ~local_addr:dut_addr ~hold_time:m.hold_time ~native_rr:m.native_rr
            ?native_ov:(Option.map roa_store m.native_ov_roas)
            ~xtras:m.xtras ~batch_updates:m.batch_updates
            ~update_groups:m.update_groups ())
         [
           peer "upstream" up_as up_addr l1_dut;
           peer ~rr_client:true "downstream" down_as down_addr l2_dut;
         ])
  in
  let dut =
    match m.host with
    | `Frr ->
      dut_on (module Frrouting.Bgpd) (fun d -> Daemon.Frr d)
        Rpki.Store_trie.of_list
    | `Bird ->
      dut_on (module Bird.Bgpd) (fun d -> Daemon.Bird d) Rpki.Store_hash.of_list
  in
  { sched; upstream; dut; downstream; dut_vmm; telemetry }

(** Bring all three sessions up. @raise Failure if they do not establish. *)
let establish t =
  Frrouting.Bgpd.start t.upstream;
  Daemon.start t.dut;
  Frrouting.Bgpd.start t.downstream;
  let up () =
    Frrouting.Bgpd.peer_established t.upstream 0
    && Frrouting.Bgpd.peer_established t.downstream 0
  in
  if not (Netsim.Sched.run_until t.sched up) then
    failwith "Testbed.establish: sessions did not come up"

(** Feed the RIS table into the upstream router (§3.2: "the upstream
    router is first fed with IPv4 BGP routes"). *)
let feed t (routes : Dataset.Ris_gen.route list) =
  List.iter
    (fun (r : Dataset.Ris_gen.route) ->
      Frrouting.Bgpd.originate t.upstream r.prefix r.attrs)
    routes

(** Run the simulation until the downstream router holds [expect] routes
    ("the delay between the announcement of the first prefix ... and the
    reception of the last prefix ... on the downstream router").
    Returns false if the event queue drains first. *)
let run_until_downstream_has t expect =
  Netsim.Sched.run_until t.sched (fun () ->
      Frrouting.Bgpd.loc_count t.downstream >= expect)

let downstream_count t = Frrouting.Bgpd.loc_count t.downstream
