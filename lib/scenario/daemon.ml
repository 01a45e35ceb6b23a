(* A uniform handle over the two hosts, for harness code (tests,
   examples, benchmarks) that instantiates either one. Both daemons are
   instances of {!Pipeline.Make}, so every accessor goes through the
   packed pipeline module and is written once. *)

type t = Frr of Frrouting.Bgpd.t | Bird of Bird.Bgpd.t
type packed = Packed : (module Pipeline.S with type t = 'd) * 'd -> packed

let pack = function
  | Frr d -> Packed ((module Frrouting.Bgpd), d)
  | Bird d -> Packed ((module Bird.Bgpd), d)

type host = Host : (module Pipeline.S with type t = 'd) * ('d -> t) -> host

let host = function
  | `Frr -> Host ((module Frrouting.Bgpd), fun d -> Frr d)
  | `Bird -> Host ((module Bird.Bgpd), fun d -> Bird d)

let name t = match pack t with Packed ((module D), d) -> D.name d
let start t = match pack t with Packed ((module D), d) -> D.start d

let originate t prefix attrs =
  match pack t with Packed ((module D), d) -> D.originate d prefix attrs

let withdraw_local t prefix =
  match pack t with Packed ((module D), d) -> D.withdraw_local d prefix

let loc_count t = match pack t with Packed ((module D), d) -> D.loc_count d

let peer_established t idx =
  match pack t with Packed ((module D), d) -> D.peer_established d idx

let best_attrs t prefix =
  match pack t with Packed ((module D), d) -> D.best_attrs d prefix

let has_route t prefix = best_attrs t prefix <> None

let loc_snapshot t =
  match pack t with Packed ((module D), d) -> D.loc_snapshot d

let best_path t prefix =
  Option.bind (best_attrs t prefix) (fun attrs ->
      List.find_map
        (fun (a : Bgp.Attr.t) ->
          match a.value with
          | Bgp.Attr.As_path segs -> Some (Bgp.Attr.as_path_asns segs)
          | _ -> None)
        attrs)

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

let stats t = match pack t with Packed ((module D), d) -> D.stats d
let updates_rx t = (stats t).updates_rx
let import_rejected t = (stats t).import_rejected
let set_log t f = match pack t with Packed ((module D), d) -> D.set_log d f

let restart_sessions t =
  match pack t with Packed ((module D), d) -> D.restart_sessions d

let set_xtra t key value =
  match pack t with Packed ((module D), d) -> D.set_xtra d key value

let rerun_init t = match pack t with Packed ((module D), d) -> D.rerun_init d

let refresh_exports t =
  match pack t with Packed ((module D), d) -> D.refresh_exports d

let group_count t = match pack t with Packed ((module D), d) -> D.group_count d
let vmm t = match pack t with Packed ((module D), d) -> D.vmm d

let provenance t prefix =
  match pack t with Packed ((module D), d) -> D.provenance d prefix

let provenance_candidates t prefix =
  match pack t with Packed ((module D), d) -> D.provenance_candidates d prefix

let provenance_snapshot t =
  match pack t with Packed ((module D), d) -> D.provenance_snapshot d

let set_recorder t r =
  match pack t with Packed ((module D), d) -> D.set_recorder d r

let recorder t = match pack t with Packed ((module D), d) -> D.recorder d

let set_collector t c =
  match pack t with Packed ((module D), d) -> D.set_collector d c

let collector t = match pack t with Packed ((module D), d) -> D.collector d

let group_details t =
  match pack t with Packed ((module D), d) -> D.group_details d
