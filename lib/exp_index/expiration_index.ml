open Expirel_core

type backend =
  [ `Scan
  | `Heap
  | `Wheel
  ]

type state =
  | Scan
  | Heap of Binary_heap.t
  | Wheel of Timer_wheel.t

type t = {
  state : state;
  live : (int, Time.t) Hashtbl.t;
}

let create ?(start = 0) backend =
  let state =
    match backend with
    | `Scan -> Scan
    | `Heap -> Heap (Binary_heap.create ())
    | `Wheel -> Wheel (Timer_wheel.create ~start ())
  in
  { state; live = Hashtbl.create 64 }

let backend t =
  match t.state with
  | Scan -> `Scan
  | Heap _ -> `Heap
  | Wheel _ -> `Wheel

let size t = Hashtbl.length t.live

let add t ~id ~texp =
  Hashtbl.replace t.live id texp;
  match texp, t.state with
  | Time.Inf, _ | _, Scan -> ()
  | Time.Fin n, Heap h -> Binary_heap.push h n id
  | Time.Fin n, Wheel w ->
    (* Expiration at texp means absence from exp_tau for tau >= texp, so
       the wheel fires the entry at tick texp. *)
    Timer_wheel.add w ~at:(max n (Timer_wheel.now w)) id

let remove t ~id = Hashtbl.remove t.live id
(* An entry popped from a backend is authoritative only if the id is
   still live with that exact expiration time (lazy deletion). *)
let confirm t tau (time, id) =
  match Hashtbl.find_opt t.live id with
  | Some (Time.Fin n) when n <= time && Time.(Time.Fin n <= tau) ->
    Hashtbl.remove t.live id;
    Some (id, Time.Fin n)
  | Some _ | None -> None

let expire_upto t tau =
  match t.state, tau with
  | Scan, _ ->
    let due =
      Hashtbl.fold
        (fun id texp acc -> if Time.(texp <= tau) then (id, texp) :: acc else acc)
        t.live []
    in
    List.iter (fun (id, _) -> Hashtbl.remove t.live id) due;
    List.sort (fun (i1, e1) (i2, e2) ->
        match Time.compare e1 e2 with
        | 0 -> Int.compare i1 i2
        | c -> c)
      due
  | Heap _, Time.Inf | Wheel _, Time.Inf ->
    invalid_arg "Expiration_index.expire_upto: infinite bound"
  | Heap h, Time.Fin bound ->
    List.filter_map (confirm t tau) (Binary_heap.pop_until h bound)
  | Wheel w, Time.Fin bound ->
    if bound < Timer_wheel.now w then
      invalid_arg "Expiration_index.expire_upto: moving backwards"
    else List.filter_map (confirm t tau) (Timer_wheel.advance w ~to_:bound)

let next_expiry t =
  match t.state with
  | Scan | Wheel _ ->
    Hashtbl.fold
      (fun _ texp acc ->
        if Time.is_finite texp then
          Some (match acc with
            | None -> texp
            | Some best -> Time.min best texp)
        else acc)
      t.live None
  | Heap h ->
    (* Drop stale heap heads until a live one surfaces. *)
    let rec go () =
      match Binary_heap.peek h with
      | None -> None
      | Some (time, id) ->
        (match Hashtbl.find_opt t.live id with
         | Some (Time.Fin n) when n = time -> Some (Time.Fin n)
         | Some _ | None ->
           let (_ : (int * int) option) = Binary_heap.pop h in
           go ())
    in
    go ()
