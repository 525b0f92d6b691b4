let palette =
  [|
    "#e41a1c"; "#377eb8"; "#4daf4a"; "#984ea3"; "#ff7f00"; "#a65628";
    "#f781bf"; "#17becf"; "#bcbd22"; "#666666";
  |]

(* Layered layout: layer = longest-path depth from sources; vertices within
   a layer stacked vertically in id order. *)
type layout = {
  x : float array;
  y : float array;
  view_w : float;
  view_h : float;
}

let layout_of g =
  let n = Digraph.n_vertices g in
  let depth = Array.make n 0 in
  (match Traversal.topological_order g with
  | Some order ->
    List.iter
      (fun v ->
        List.iter
          (fun w -> if depth.(v) + 1 > depth.(w) then depth.(w) <- depth.(v) + 1)
          (Digraph.succ g v))
      order
  | None -> ());
  let max_depth = Array.fold_left max 0 depth in
  let per_layer = Array.make (max_depth + 1) 0 in
  let row = Array.make n 0 in
  for v = 0 to n - 1 do
    row.(v) <- per_layer.(depth.(v));
    per_layer.(depth.(v)) <- per_layer.(depth.(v)) + 1
  done;
  let max_rows = Array.fold_left max 1 per_layer in
  let dx = 110.0 and dy = 70.0 and margin = 50.0 in
  let x = Array.make n 0.0 and y = Array.make n 0.0 in
  for v = 0 to n - 1 do
    x.(v) <- margin +. (float_of_int depth.(v) *. dx);
    (* Center each layer vertically. *)
    let rows = per_layer.(depth.(v)) in
    let offset = float_of_int (max_rows - rows) /. 2.0 in
    y.(v) <- margin +. ((float_of_int row.(v) +. offset) *. dy)
  done;
  {
    x;
    y;
    view_w = (2.0 *. margin) +. (float_of_int max_depth *. dx);
    view_h = (2.0 *. margin) +. (float_of_int (max_rows - 1) *. dy);
  }

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let header l =
  let w = int_of_float l.view_w and h = int_of_float l.view_h in
  Printf.sprintf
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
     viewBox=\"0 0 %.0f %.0f\">\n\
     <defs><marker id=\"arrow\" viewBox=\"0 0 10 10\" refX=\"9\" refY=\"5\" \
     markerWidth=\"6\" markerHeight=\"6\" orient=\"auto-start-reverse\">\
     <path d=\"M 0 0 L 10 5 L 0 10 z\" fill=\"#555\"/></marker></defs>\n\
     <rect width=\"100%%\" height=\"100%%\" fill=\"white\"/>\n"
    w h l.view_w l.view_h

(* Cubic arc between vertex centers, shortened so arrowheads sit on the
   node boundary; [bend] offsets the control points for parallel strokes. *)
let arc_path l ?(bend = 0.0) u v =
  let r = 14.0 in
  let x1 = l.x.(u) and y1 = l.y.(u) and x2 = l.x.(v) and y2 = l.y.(v) in
  let dx = x2 -. x1 and dy = y2 -. y1 in
  let len = max 1.0 (sqrt ((dx *. dx) +. (dy *. dy))) in
  let ux = dx /. len and uy = dy /. len in
  (* Perpendicular for bends. *)
  let px = -.uy and py = ux in
  let sx = x1 +. (ux *. r) and sy = y1 +. (uy *. r) in
  let ex = x2 -. (ux *. r) and ey = y2 -. (uy *. r) in
  let c1x = sx +. (0.33 *. (ex -. sx)) +. (bend *. px) in
  let c1y = sy +. (0.33 *. (ey -. sy)) +. (bend *. py) in
  let c2x = sx +. (0.66 *. (ex -. sx)) +. (bend *. px) in
  let c2y = sy +. (0.66 *. (ey -. sy)) +. (bend *. py) in
  Printf.sprintf "M %.1f %.1f C %.1f %.1f, %.1f %.1f, %.1f %.1f" sx sy c1x c1y
    c2x c2y ex ey

let nodes g l buf =
  Digraph.iter_vertices
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf
           "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"14\" fill=\"#f8f8f8\" \
            stroke=\"#333\"/>\n\
            <text x=\"%.1f\" y=\"%.1f\" text-anchor=\"middle\" dy=\"4\" \
            font-size=\"9\" font-family=\"sans-serif\">%s</text>\n"
           l.x.(v) l.y.(v) l.x.(v) l.y.(v)
           (escape (Digraph.label g v))))
    g

let of_digraph g =
  let l = layout_of g in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (header l);
  Digraph.iter_arcs
    (fun _ u v ->
      Buffer.add_string buf
        (Printf.sprintf
           "<path d=\"%s\" fill=\"none\" stroke=\"#555\" \
            marker-end=\"url(#arrow)\"/>\n"
           (arc_path l u v)))
    g;
  nodes g l buf;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let of_colored_paths g paths =
  let l = layout_of g in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header l);
  (* Base arcs in light gray. *)
  Digraph.iter_arcs
    (fun _ u v ->
      Buffer.add_string buf
        (Printf.sprintf
           "<path d=\"%s\" fill=\"none\" stroke=\"#dddddd\" \
            marker-end=\"url(#arrow)\"/>\n"
           (arc_path l u v)))
    g;
  (* Per-arc stroke count so parallel dipaths fan out visibly. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (p, color) ->
      let stroke = palette.(color mod Array.length palette) in
      List.iter
        (fun a ->
          let k = Option.value ~default:0 (Hashtbl.find_opt seen a) in
          Hashtbl.replace seen a (k + 1);
          let bend = 6.0 *. float_of_int k in
          let u, v = Digraph.arc_endpoints g a in
          Buffer.add_string buf
            (Printf.sprintf
               "<path d=\"%s\" fill=\"none\" stroke=\"%s\" \
                stroke-width=\"2\" opacity=\"0.85\"/>\n"
               (arc_path l ~bend u v) stroke))
        (Dipath.arcs p))
    paths;
  nodes g l buf;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
