module Clique = Wl_conflict.Clique
module Coloring = Wl_conflict.Coloring
module Exact = Wl_conflict.Exact

let independence_lower inst =
  let n = Instance.n_paths inst in
  if n = 0 then 0
  else
    let alpha = Clique.independence_number (Conflict_of.build inst) in
    (n + alpha - 1) / alpha

let heuristic_upper inst =
  Coloring.n_colors (Coloring.normalize (Coloring.best_heuristic (Conflict_of.build inst)))

let chromatic_exact inst = Exact.chromatic_number (Conflict_of.build inst)

let theorem6_upper ~n_internal_cycles pi =
  if n_internal_cycles < 0 then invalid_arg "Bounds.theorem6_upper";
  let rec go c w = if c = 0 then w else go (c - 1) ((4 * w + 2) / 3) in
  go n_internal_cycles pi
