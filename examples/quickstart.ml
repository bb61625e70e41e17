(* Quickstart: generate a small simulated internetwork, run the full
   bdrmap pipeline from one vantage point, and print the inferred border
   routers with the heuristic that identified each.

   Run with: dune exec examples/quickstart.exe *)

module Gen = Topogen.Gen
open Netcore

let () =
  (* 1. A small world: one hosting AS, a handful of neighbors. *)
  let world = Gen.generate Topogen.Scenario.tiny in
  Printf.printf "world: %d ASes, %d routers, %d links\n"
    (List.length (Topogen.Net.ases world.net))
    (Topogen.Net.router_count world.net)
    (Topogen.Net.link_count world.net);

  (* 2. Build the probing stack and the public input artifacts (BGP
     collector view, inferred AS relationships, IXP list, delegations). *)
  let _shared, _fwd, engine, inputs = Bdrmap.Pipeline.setup world in
  Printf.printf "public view: %d prefixes, %d relationship edges\n"
    (Bgpdata.Rib.cardinal inputs.rib)
    (Bgpdata.As_rel.edge_count inputs.rels);

  (* 3. Run bdrmap from the first VP. *)
  let vp = List.hd world.vps in
  Printf.printf "probing from %s...\n%!" vp.Gen.vp_name;
  let run = Bdrmap.Pipeline.execute engine inputs ~vp in
  Printf.printf "%s\n"
    (Format.asprintf "%a" Probesim.Scheduler.pp run.collection.sched);

  (* 4. The inferred interdomain links. *)
  Printf.printf "\ninferred borders (%d links):\n" (List.length run.inference.links);
  List.iter
    (fun (l : Bdrmap.Heuristics.border_link) ->
      let addrs_of = function
        | None -> "(unobserved)"
        | Some id ->
          String.concat ","
            (List.map Ipv4.to_string (Bdrmap.Rgraph.all_addrs run.graph id))
      in
      Printf.printf "  %-22s -> %-28s neighbor %-8s via %s\n"
        (addrs_of l.near_node) (addrs_of l.far_node)
        (Asn.to_string l.neighbor)
        (Bdrmap.Heuristics.tag_label l.tag))
    run.inference.links;

  (* 5. Score against the generator's ground truth. *)
  let s =
    Bdrmap.Validate.summarize
      (Bdrmap.Validate.links world run.graph run.inference)
  in
  Printf.printf "\nvalidation: %s\n" (Format.asprintf "%a" Bdrmap.Validate.pp_summary s)
