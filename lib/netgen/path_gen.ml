open Wl_digraph
module Dag = Wl_dag.Dag
module Prng = Wl_util.Prng

(* A uniform-start random directed walk, stopping after each step past the
   first with probability 0.35 or at a sink; [None] when the start has no
   outgoing arc. *)
let random_walk rng dag =
  let g = Dag.graph dag in
  let n = Digraph.n_vertices g in
  if n = 0 then None
  else begin
    let rec go v acc =
      match Digraph.succ g v with
      | [] -> List.rev acc
      | succs ->
        if List.length acc > 1 && Prng.bernoulli rng 0.35 then List.rev acc
        else
          let w = Prng.choose_list rng succs in
          go w (w :: acc)
    in
    let start = Prng.int rng n in
    match go start [ start ] with
    | [ _ ] | [] -> None
    | verts -> Some (Dipath.make g verts)
  end

let random_family rng dag k =
  let has_arc = Dag.n_arcs dag > 0 in
  if not has_arc then []
  else begin
    let rec collect acc remaining attempts =
      if remaining = 0 || attempts = 0 then List.rev acc
      else
        match random_walk rng dag with
        | Some p -> collect (p :: acc) (remaining - 1) attempts
        | None -> collect acc remaining (attempts - 1)
    in
    collect [] k (k * 50)
  end

let random_instance rng dag k = Wl_core.Instance.make dag (random_family rng dag k)
