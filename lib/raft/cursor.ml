type t = { s : string; mutable pos : int }

exception Bad

let parse s f =
  let c = { s; pos = 0 } in
  match f c with
  | v when c.pos = String.length s -> Ok v
  | _ -> Error (Printf.sprintf "trailing bytes at offset %d" c.pos)
  | exception Bad -> Error (Printf.sprintf "malformed at offset %d" c.pos)

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let expect c ch =
  if peek c <> Some ch then raise Bad;
  c.pos <- c.pos + 1

let scan c keep =
  let start = c.pos in
  while match peek c with Some ch -> keep ch | None -> false do
    c.pos <- c.pos + 1
  done;
  String.sub c.s start (c.pos - start)

let word c =
  let w = scan c (fun ch -> ch <> ' ') in
  expect c ' ';
  w

let int c =
  let sign = if peek c = Some '-' then (c.pos <- c.pos + 1; "-") else "" in
  let digits = scan c (fun ch -> ch >= '0' && ch <= '9') in
  match int_of_string_opt (sign ^ digits) with
  | Some n when digits <> "" -> n
  | _ -> raise Bad

let str c =
  let n = int c in
  expect c ':';
  if n < 0 || n > String.length c.s - c.pos then raise Bad;
  let r = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  r

let list c item =
  let n = int c in
  let rec go k acc =
    if k <= 0 then List.rev acc
    else begin
      expect c ' ';
      go (k - 1) (item c :: acc)
    end
  in
  if n < 0 then raise Bad else go n []
