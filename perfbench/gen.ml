(* Seeded inputs for the three workloads, and the bench-side reference
   model of what every receiver must end up holding.

   Everything the DUT sees is derived here from the workload seed: the
   table (Dataset.Ris_gen), the ROA file, the packing of prefixes into
   UPDATEs and the closed-loop event stream. The DUT receives only the
   generated frames, through the scripted feeder peer. *)

type kind = Ris_ov | Rr_fanout | Churn_ov

type workload = {
  name : string;
  kind : kind;
  routes : int;  (** table size *)
  events : int;  (** closed-loop single-prefix events per repetition *)
  receivers : int;  (** spokes 1..receivers receive; spoke 0 feeds *)
  share : int;  (** prefixes per attribute set *)
}

let workloads =
  [
    {
      name = "ris-ov";
      kind = Ris_ov;
      routes = 8_000;
      events = 3_000;
      receivers = 1;
      share = 1;
    };
    {
      name = "rr-fanout";
      kind = Rr_fanout;
      routes = 2_000;
      events = 2_000;
      receivers = 8;
      share = 4;
    };
    {
      name = "churn-ov";
      kind = Churn_ov;
      routes = 5_000;
      events = 5_000;
      receivers = 1;
      share = 1;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads
let ov w = w.kind <> Rr_fanout
let table_workload w = w.kind <> Churn_ov

(* Addresses and ASNs fixed by Scenario.Star: the DUT is 10.0.0.1 in
   AS 65000, spoke i is 10.1.0.(2+i) in AS 65101+i (or 65000 on iBGP). *)
let dut_as = 65000
let dut_addr = Bgp.Prefix.addr_of_quad (10, 0, 0, 1)
let feeder_addr = Bgp.Prefix.addr_of_quad (10, 1, 0, 2)
let feeder_as w = if ov w then 65101 else dut_as

type event = {
  ev_prefix : Bgp.Prefix.t;
  ev_attrs : Bgp.Attr.t list option;  (** [None]: a withdrawal *)
}

type t = {
  w : workload;
  seed : int;
  table : (Bgp.Prefix.t * Bgp.Attr.t list) array;
      (** the feeder's routes, as sent *)
  updates : Bgp.Message.update list;  (** the table, packed *)
  roas : Rpki.Roa.t list;
  roa_blob : bytes;  (** the DUT's [roa_table] configuration extra *)
  store : Rpki.Store_hash.t;  (** reference validator *)
  events : event array;
}

let map_path f attrs =
  List.map
    (fun (a : Bgp.Attr.t) ->
      match a.value with
      | Bgp.Attr.As_path segs ->
        Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq (f (Bgp.Attr.as_path_asns segs)) ])
      | _ -> a)
    attrs

let origin_of attrs =
  List.find_map
    (fun (a : Bgp.Attr.t) ->
      match a.value with
      | Bgp.Attr.As_path segs -> Bgp.Attr.as_path_origin segs
      | _ -> None)
    attrs

(* What the feeder sends: over eBGP it prepends its own AS; over iBGP it
   adds LOCAL_PREF. Either way the NEXT_HOP is the feeder itself. *)
let feeder_attrs w (r : Dataset.Ris_gen.route) =
  let attrs =
    List.map
      (fun (a : Bgp.Attr.t) ->
        match a.value with
        | Bgp.Attr.Next_hop _ -> Bgp.Attr.v (Bgp.Attr.Next_hop feeder_addr)
        | _ -> a)
      r.attrs
  in
  if ov w then map_path (fun p -> feeder_as w :: p) attrs
  else attrs @ [ Bgp.Attr.v (Bgp.Attr.Local_pref 100) ]

(* Pack runs of prefixes sharing one attribute set into UPDATEs of at
   most 4096 bytes, as a real speaker does. *)
let pack table =
  let fits u =
    Bytes.length (Bgp.Message.encode (Bgp.Message.Update u))
    <= Bgp.Message.max_size
  in
  let rec split attrs nlri =
    let u = { Bgp.Message.withdrawn = []; attrs; nlri } in
    if List.length nlri <= 1 || fits u then [ u ]
    else
      let half = List.length nlri / 2 in
      split attrs (List.filteri (fun i _ -> i < half) nlri)
      @ split attrs (List.filteri (fun i _ -> i >= half) nlri)
  in
  let runs = ref [] in
  Array.iter
    (fun (p, attrs) ->
      match !runs with
      | (a, ps) :: rest when a == attrs -> runs := (a, p :: ps) :: rest
      | _ -> runs := (attrs, [ p ]) :: !runs)
    table;
  List.concat_map (fun (a, ps) -> split a (List.rev ps)) (List.rev !runs)

(* The event stream: pick a prefix uniformly; a withdrawn one is
   re-announced, a present one is withdrawn (1 in 3) or replaced. A
   replacement changes the origin AS so that validity flips where a ROA
   covers the prefix (valid <-> invalid); uncovered prefixes get a new
   origin and stay not-found. About half the events are replacements and
   a quarter each withdrawals and re-announcements. *)
let gen_events rng table roas n =
  let roa_asn = Hashtbl.create 1024 in
  List.iter (fun (r : Rpki.Roa.t) -> Hashtbl.replace roa_asn r.prefix r.asn) roas;
  let cur = Array.map snd table in
  let present = Array.make (Array.length table) true in
  Array.init n (fun _ ->
      let i = Dataset.Prng.int rng (Array.length table) in
      let p = fst table.(i) in
      if not present.(i) then begin
        present.(i) <- true;
        { ev_prefix = p; ev_attrs = Some cur.(i) }
      end
      else if Dataset.Prng.int rng 3 = 0 then begin
        present.(i) <- false;
        { ev_prefix = p; ev_attrs = None }
      end
      else begin
        let origin = Option.value ~default:1 (origin_of cur.(i)) in
        let origin' =
          match Hashtbl.find_opt roa_asn p with
          | Some asn when asn = origin -> asn + 1
          | Some asn -> asn
          | None -> origin + 1
        in
        cur.(i) <-
          map_path
            (fun path ->
              match List.rev path with
              | _ :: rest -> List.rev (origin' :: rest)
              | [] -> [ origin' ])
            cur.(i);
        { ev_prefix = p; ev_attrs = Some cur.(i) }
      end)

let make w seed =
  let ris =
    Dataset.Ris_gen.generate
      {
        Dataset.Ris_gen.default_config with
        seed;
        count = w.routes;
        disjoint = true;
      }
  in
  let roas =
    if ov w then
      Dataset.Ris_gen.roas_for ~seed:(seed + 1) ~valid_pct:75 ~invalid_pct:13
        ris
    else []
  in
  (* [share] consecutive prefixes carry one attribute set (physically
     shared, which is what [pack] groups on) *)
  let ris = Array.of_list ris in
  let attrs = Array.map (feeder_attrs w) ris in
  let table =
    Array.mapi
      (fun i (r : Dataset.Ris_gen.route) ->
        (r.prefix, attrs.(i / w.share * w.share)))
      ris
  in
  let rng = Dataset.Prng.create (seed + 2) in
  {
    w;
    seed;
    table;
    updates = pack table;
    roas;
    roa_blob = Xprogs.Util.encode_roa_table roas;
    store = Rpki.Store_hash.of_list roas;
    events = gen_events rng table roas w.events;
  }

let update_of_event e =
  match e.ev_attrs with
  | Some attrs ->
    { Bgp.Message.withdrawn = []; attrs; nlri = [ e.ev_prefix ] }
  | None -> { Bgp.Message.withdrawn = [ e.ev_prefix ]; attrs = []; nlri = [] }

(* ---- the reference model ---- *)

let ov_community = function
  | Rpki.Roa.Valid -> Frrouting.Bgpd.ov_community_valid
  | Rpki.Roa.Invalid -> Frrouting.Bgpd.ov_community_invalid
  | Rpki.Roa.Not_found -> Frrouting.Bgpd.ov_community_notfound

(* What every receiver must hold for a route the feeder announced, in
   canonical attribute order. eBGP (origin validation): the DUT prepends
   its AS, sets itself as NEXT_HOP, and the extension appends the
   validation community computed here with Rpki.Store_hash. iBGP (route
   reflection): attributes pass unchanged plus ORIGINATOR_ID (the
   feeder) and CLUSTER_LIST (the DUT). *)
let expected t prefix attrs =
  let out =
    if ov t.w then begin
      let origin = Option.value ~default:1 (origin_of attrs) in
      let comm = ov_community (Rpki.Store_hash.validate t.store prefix origin) in
      let has_comm = ref false in
      let attrs =
        List.filter_map
          (fun (a : Bgp.Attr.t) ->
            match a.value with
            | Bgp.Attr.Next_hop _ -> Some (Bgp.Attr.v (Bgp.Attr.Next_hop dut_addr))
            | Bgp.Attr.Local_pref _ -> None
            | Bgp.Attr.Med _ -> None
            | Bgp.Attr.Communities cs ->
              has_comm := true;
              Some (Bgp.Attr.v (Bgp.Attr.Communities (cs @ [ comm ])))
            | _ -> Some a)
          (map_path (fun p -> dut_as :: p) attrs)
      in
      if !has_comm then attrs
      else attrs @ [ Bgp.Attr.v (Bgp.Attr.Communities [ comm ]) ]
    end
    else
      attrs
      @ [
          Bgp.Attr.v (Bgp.Attr.Originator_id feeder_addr);
          Bgp.Attr.v (Bgp.Attr.Cluster_list [ dut_addr ]);
        ]
  in
  Bgp.Attr.sort_canonical out
