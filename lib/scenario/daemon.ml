(* A uniform handle over the two daemon implementations, for harness code
   (tests, examples, benchmarks) that instantiates either host. This is
   deliberately *not* part of the xBGP architecture — the daemons stay
   independent programs; only the experiment harness needs to treat them
   alike. *)

type t = Frr of Frrouting.Bgpd.t | Bird of Bird.Bgpd.t

let name = function
  | Frr d -> Frrouting.Bgpd.name d
  | Bird d -> Bird.Bgpd.name d

let start = function
  | Frr d -> Frrouting.Bgpd.start d
  | Bird d -> Bird.Bgpd.start d

let originate t prefix attrs =
  match t with
  | Frr d -> Frrouting.Bgpd.originate d prefix attrs
  | Bird d -> Bird.Bgpd.originate d prefix attrs

let withdraw_local t prefix =
  match t with
  | Frr d -> Frrouting.Bgpd.withdraw_local d prefix
  | Bird d -> Bird.Bgpd.withdraw_local d prefix

let loc_count = function
  | Frr d -> Frrouting.Bgpd.loc_count d
  | Bird d -> Bird.Bgpd.loc_count d

let peer_established t idx =
  match t with
  | Frr d -> Frrouting.Bgpd.peer_established d idx
  | Bird d -> Bird.Bgpd.peer_established d idx

(** Attributes of the best route for [prefix], in the shared codec type —
    this is how the equivalence tests compare hosts. *)
let best_attrs t prefix =
  match t with
  | Frr d -> Frrouting.Bgpd.best_attrs d prefix
  | Bird d -> Bird.Bgpd.best_attrs d prefix

let has_route t prefix = best_attrs t prefix <> None

(** Whole-Loc-RIB snapshot in the neutral codec form, sorted by prefix. *)
let loc_snapshot = function
  | Frr d -> Frrouting.Bgpd.loc_snapshot d
  | Bird d -> Bird.Bgpd.loc_snapshot d

(** AS path (flattened) of the best route towards [prefix]. *)
let best_path t prefix =
  Option.bind (best_attrs t prefix) (fun attrs ->
      List.find_map
        (fun (a : Bgp.Attr.t) ->
          match a.value with
          | Bgp.Attr.As_path segs -> Some (Bgp.Attr.as_path_asns segs)
          | _ -> None)
        attrs)

(** Community values of the best route towards [prefix]. *)
let best_communities t prefix =
  match best_attrs t prefix with
  | None -> None
  | Some attrs ->
    Some
      (Option.value ~default:[]
         (List.find_map
            (fun (a : Bgp.Attr.t) ->
              match a.value with
              | Bgp.Attr.Communities cs -> Some cs
              | _ -> None)
            attrs))

let updates_rx = function
  | Frr d -> (Frrouting.Bgpd.stats d).updates_rx
  | Bird d -> (Bird.Bgpd.stats d).updates_rx

let import_rejected = function
  | Frr d -> (Frrouting.Bgpd.stats d).import_rejected
  | Bird d -> (Bird.Bgpd.stats d).import_rejected

let set_log t f =
  match t with
  | Frr d -> Frrouting.Bgpd.set_log d f
  | Bird d -> Bird.Bgpd.set_log d f

let restart_sessions = function
  | Frr d -> Frrouting.Bgpd.restart_sessions d
  | Bird d -> Bird.Bgpd.restart_sessions d

let set_xtra t key value =
  match t with
  | Frr d -> Frrouting.Bgpd.set_xtra d key value
  | Bird d -> Bird.Bgpd.set_xtra d key value

let rerun_init = function
  | Frr d -> Frrouting.Bgpd.rerun_init d
  | Bird d -> Bird.Bgpd.rerun_init d

let stats = function
  | Frr d -> Frrouting.Bgpd.stats d
  | Bird d -> Bird.Bgpd.stats d

let refresh_exports = function
  | Frr d -> Frrouting.Bgpd.refresh_exports d
  | Bird d -> Bird.Bgpd.refresh_exports d

(** Active update groups on the daemon (0 with update groups off). *)
let group_count = function
  | Frr d -> Frrouting.Bgpd.group_count d
  | Bird d -> Bird.Bgpd.group_count d

let vmm = function
  | Frr d -> Frrouting.Bgpd.vmm d
  | Bird d -> Bird.Bgpd.vmm d

(** Provenance of the prefix's current best route (or the last
    reject/withdraw record). *)
let provenance t prefix =
  match t with
  | Frr d -> Frrouting.Bgpd.provenance d prefix
  | Bird d -> Bird.Bgpd.provenance d prefix

let provenance_candidates t prefix =
  match t with
  | Frr d -> Frrouting.Bgpd.provenance_candidates d prefix
  | Bird d -> Bird.Bgpd.provenance_candidates d prefix

let provenance_snapshot = function
  | Frr d -> Frrouting.Bgpd.provenance_snapshot d
  | Bird d -> Bird.Bgpd.provenance_snapshot d

let set_recorder t r =
  match t with
  | Frr d -> Frrouting.Bgpd.set_recorder d r
  | Bird d -> Bird.Bgpd.set_recorder d r

let recorder = function
  | Frr d -> Frrouting.Bgpd.recorder d
  | Bird d -> Bird.Bgpd.recorder d

let set_collector t c =
  match t with
  | Frr d -> Frrouting.Bgpd.set_collector d c
  | Bird d -> Bird.Bgpd.set_collector d c

let collector = function
  | Frr d -> Frrouting.Bgpd.collector d
  | Bird d -> Bird.Bgpd.collector d

(** Update-group partition [(key, member indices)] in creation order. *)
let group_details = function
  | Frr d -> Frrouting.Bgpd.group_details d
  | Bird d -> Bird.Bgpd.group_details d
