open Expirel_core
open Expirel_storage

(* A batch: one chunk of rows in column-major layout, a parallel
   expiration-time array, and an optional selection vector.  Filters
   never copy data — they narrow [sel] — and projections only permute
   the column-array pointers, so a pipeline of scan → filter → project
   touches each value at most once, at materialisation (or aggregate
   accumulation) time.

   Scan-produced batches come straight from a run's chunks
   ([Texp_run.scan_range]): zero copies for a wholly-live chunk, and a
   selection of the live rows otherwise — in a table's texp-ordered
   run, the suffix one binary search finds.
   Batches re-entered from a set-semantics operator's answer
   ([of_relation]) are in tuple order instead — sortedness only
   matters at scan leaves, where the [tau] filter runs; every operator
   above sees live rows only. *)

type t = {
  arity : int;
  cols : Value.t array array;  (* [arity] columns, [full] values each *)
  texps : Time.t array;  (* parallel to the columns *)
  sel : int array option;  (* selected row ids, ascending; [None] = all *)
}

let arity b = b.arity
let length b =
  match b.sel with
  | Some s -> Array.length s
  | None -> Array.length b.texps

(* Iterate the selected rows: [f] receives the physical row id, valid
   as an index into every column and into [texps]. *)
let iter_rows f b =
  match b.sel with
  | None ->
    for i = 0 to Array.length b.texps - 1 do
      f i
    done
  | Some s -> Array.iter f s

let fold_rows b ~init ~f =
  let acc = ref init in
  iter_rows (fun i -> acc := f !acc (fun j -> b.cols.(j - 1).(i)) b.texps.(i)) b;
  !acc

(* ---------- construction ---------- *)

let of_slice ~arity c sel =
  { arity;
    cols = Array.init arity (fun j -> Texp_run.chunk_col c (j + 1));
    texps = Texp_run.chunk_texps c;
    sel
  }

let of_rows ~arity rows =
  let n = List.length rows in
  if n = 0 then None
  else begin
    let cols = Array.init arity (fun _ -> Array.make n Value.Null) in
    let texps = Array.make n Time.Inf in
    List.iteri
      (fun i (t, e) ->
        texps.(i) <- e;
        for j = 0 to arity - 1 do
          cols.(j).(i) <- Tuple.attr t (j + 1)
        done)
      rows;
    Some { arity; cols; texps; sel = None }
  end

(* ---------- the growable output side ---------- *)

(* Join (and rebatch) outputs accumulate here: fixed-size column
   buffers flushed into finished batches as they fill. *)
module Builder = struct
  type batch = t

  type nonrec t = {
    b_arity : int;
    mutable buf_cols : Value.t array array;
    mutable buf_texps : Time.t array;
    mutable fill : int;
    mutable done_ : batch list;  (* reverse order *)
  }

  let fresh_cols arity = Array.init arity (fun _ -> Array.make Texp_run.chunk_rows Value.Null)

  let create ~arity =
    { b_arity = arity;
      buf_cols = fresh_cols arity;
      buf_texps = Array.make Texp_run.chunk_rows Time.Inf;
      fill = 0;
      done_ = []
    }

  let flush b =
    if b.fill > 0 then begin
      let n = b.fill in
      let cols =
        if n = Texp_run.chunk_rows then b.buf_cols
        else Array.map (fun col -> Array.sub col 0 n) b.buf_cols
      in
      let texps =
        if n = Texp_run.chunk_rows then b.buf_texps
        else Array.sub b.buf_texps 0 n
      in
      b.done_ <- { arity = b.b_arity; cols; texps; sel = None } :: b.done_;
      b.buf_cols <- fresh_cols b.b_arity;
      b.buf_texps <- Array.make Texp_run.chunk_rows Time.Inf;
      b.fill <- 0
    end

  (* [get] is a 1-based attribute source for the row being appended. *)
  let add b get texp =
    let i = b.fill in
    for j = 0 to b.b_arity - 1 do
      b.buf_cols.(j).(i) <- get (j + 1)
    done;
    b.buf_texps.(i) <- texp;
    b.fill <- i + 1;
    if b.fill = Texp_run.chunk_rows then flush b

  let to_batches b =
    flush b;
    List.rev b.done_
end

let of_relation r =
  let builder = Builder.create ~arity:(Relation.arity r) in
  Relation.iter (fun t e -> Builder.add builder (Tuple.attr t) e) r;
  Builder.to_batches builder

(* ---------- batch operators ---------- *)

(* Selection narrows the selection vector; the columns are shared.
   [None] when no row passes. *)
let filter kernel b =
  let hits = ref [] and n = ref 0 in
  iter_rows
    (fun i ->
      if kernel (fun j -> b.cols.(j - 1).(i)) then begin
        hits := i :: !hits;
        incr n
      end)
    b;
  if !n = 0 then None
  else begin
    let sel = Array.make !n 0 in
    List.iteri (fun k i -> sel.(!n - 1 - k) <- i) !hits;
    Some { b with sel = Some sel }
  end

(* Projection permutes column pointers — zero copies.  Coinciding
   output rows are *not* merged here; the max-merge happens where the
   rows are materialised (Relation.add), which commutes with every
   batch operator above (see DESIGN.md). *)
let project js b =
  { b with arity = List.length js; cols = Array.of_list (List.map (fun j -> b.cols.(j - 1)) js) }

(* ---------- materialisation ---------- *)

let to_relation ~arity batches =
  List.fold_left
    (fun acc b ->
      fold_rows b ~init:acc ~f:(fun acc get texp ->
          Relation.add (Tuple.init ~arity get) ~texp acc))
    (Relation.empty ~arity) batches
