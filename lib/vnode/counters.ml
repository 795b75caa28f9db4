(* A cell knows the parent set's cell of the same name, linked once when
   the cell is first made, so one [add] bumps the whole chain with a
   single hash probe and no allocation. *)
type cell = { mutable n : int; up : cell option }

type t = { cells : (string, cell) Hashtbl.t; parent : t option }

let create () = { cells = Hashtbl.create 16; parent = None }
let child parent = { cells = Hashtbl.create 16; parent = Some parent }

let rec cell t name =
  match Hashtbl.find t.cells name with
  | c -> c
  | exception Not_found ->
    let up = match t.parent with None -> None | Some p -> Some (cell p name) in
    let c = { n = 0; up } in
    Hashtbl.add t.cells name c;
    c

let rec bump c k =
  c.n <- c.n + k;
  match c.up with None -> () | Some p -> bump p k

let add t name k = bump (cell t name) k

let incr t name = add t name 1

let get t name = match Hashtbl.find t.cells name with c -> c.n | exception Not_found -> 0

let reset t = Hashtbl.iter (fun _ c -> c.n <- 0) t.cells

let snapshot t =
  Hashtbl.fold (fun name c acc -> if c.n = 0 then acc else (name, c.n) :: acc) t.cells []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
