let max_nodes = 1 lsl 31

let offheap_nodes = 1 lsl 17

module I32 = struct
  type raw = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = { mutable data : raw }

  let alloc len : raw =
    let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (max 1 len) in
    Bigarray.Array1.fill a 0l;
    a

  let create len =
    if len < 0 then invalid_arg "Storage.I32.create: negative length";
    { data = alloc len }

  let[@inline] length t = Bigarray.Array1.dim t.data

  let[@inline] get t i = Int32.to_int (Bigarray.Array1.get t.data i)

  let[@inline] set t i v = Bigarray.Array1.set t.data i (Int32.of_int v)

  let[@inline] unsafe_get t i = Int32.to_int (Bigarray.Array1.unsafe_get t.data i)

  let[@inline] unsafe_set t i v = Bigarray.Array1.unsafe_set t.data i (Int32.of_int v)

  let fill t pos len v =
    if pos < 0 || len < 0 || pos + len > length t then invalid_arg "Storage.I32.fill";
    Bigarray.Array1.fill (Bigarray.Array1.sub t.data pos len) (Int32.of_int v)

  let blit src spos dst dpos len =
    if
      spos < 0 || dpos < 0 || len < 0
      || spos + len > length src
      || dpos + len > length dst
    then invalid_arg "Storage.I32.blit";
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src.data spos len)
      (Bigarray.Array1.sub dst.data dpos len)

  let ensure t capacity =
    let cur = length t in
    if capacity > cur then begin
      let cap = ref (max 1 cur) in
      while !cap < capacity do
        cap := 2 * !cap
      done;
      let bigger = alloc !cap in
      Bigarray.Array1.blit t.data (Bigarray.Array1.sub bigger 0 cur);
      t.data <- bigger
    end

  let[@inline] raw t = t.data
end

module Ix = struct
  type raw = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = { mutable data : raw }

  let alloc len : raw =
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 len) in
    Bigarray.Array1.fill a 0;
    a

  let create len =
    if len < 0 then invalid_arg "Storage.Ix.create: negative length";
    { data = alloc len }

  let[@inline] length t = Bigarray.Array1.dim t.data

  let[@inline] get t i = Bigarray.Array1.get t.data i

  let[@inline] set t i v = Bigarray.Array1.set t.data i v

  let[@inline] unsafe_get t i = Bigarray.Array1.unsafe_get t.data i

  let[@inline] unsafe_set t i v = Bigarray.Array1.unsafe_set t.data i v

  let fill t pos len v =
    if pos < 0 || len < 0 || pos + len > length t then invalid_arg "Storage.Ix.fill";
    Bigarray.Array1.fill (Bigarray.Array1.sub t.data pos len) v

  let ensure t capacity =
    let cur = length t in
    if capacity > cur then begin
      let cap = ref (max 1 cur) in
      while !cap < capacity do
        cap := 2 * !cap
      done;
      let bigger = alloc !cap in
      Bigarray.Array1.blit t.data (Bigarray.Array1.sub bigger 0 cur);
      t.data <- bigger
    end

  let[@inline] raw t = t.data
end

module Bitset = struct
  type t = { bits : Bytes.t; n : int }

  let create n =
    if n < 0 then invalid_arg "Storage.Bitset.create: negative length";
    { bits = Bytes.make ((n + 7) lsr 3) '\000'; n }

  let[@inline] length t = t.n

  let[@inline] unsafe_get t i =
    Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let[@inline] unsafe_set t i =
    let byte = i lsr 3 in
    Bytes.unsafe_set t.bits byte
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits byte) lor (1 lsl (i land 7))))

  let[@inline] unsafe_clear t i =
    let byte = i lsr 3 in
    Bytes.unsafe_set t.bits byte
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits byte) land lnot (1 lsl (i land 7))))

  let get t i =
    if i < 0 || i >= t.n then invalid_arg "Storage.Bitset.get";
    unsafe_get t i

  let set t i =
    if i < 0 || i >= t.n then invalid_arg "Storage.Bitset.set";
    unsafe_set t i

  let clear t i =
    if i < 0 || i >= t.n then invalid_arg "Storage.Bitset.clear";
    unsafe_clear t i

  let clear_all t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

  let[@inline] bits t = t.bits
end

module Hash = struct
  (* Linear probing over two parallel native-int Bigarrays; an empty
     bucket holds key -1. Capacity is a power of two and load is kept
     at or below 1/2, so probe sequences stay short. Removal
     backward-shifts the displaced suffix of the probe cluster instead
     of leaving tombstones, keeping [find] O(cluster) forever. *)
  type t = {
    mutable keys : Ix.raw;
    mutable vals : Ix.raw;
    mutable mask : int;
    mutable len : int;
  }

  let alloc cap : Ix.raw =
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap in
    Bigarray.Array1.fill a (-1);
    a

  let create ?(capacity = 16) () =
    let cap = ref 16 in
    while !cap < capacity do
      cap := 2 * !cap
    done;
    { keys = alloc !cap; vals = alloc !cap; mask = !cap - 1; len = 0 }

  let length t = t.len

  (* Multiplicative hashing: one wrap-around multiply by a fixed odd
     62-bit constant (the splitmix64 mixer's, truncated to OCaml's
     63-bit int); [lsr 21] keeps the well-mixed middle-high bits and
     still leaves 42 of them, far above any realistic capacity.
     Deterministic across processes — no per-run seeding. *)
  let[@inline] slot t k = (k * 0x2545F4914F6CDD1D) lsr 21 land t.mask

  let find t k =
    let keys = t.keys in
    let mask = t.mask in
    let i = ref (slot t k) in
    let res = ref (-2) in
    while !res = -2 do
      let kk = Bigarray.Array1.unsafe_get keys !i in
      if kk = k then res := Bigarray.Array1.unsafe_get t.vals !i
      else if kk = -1 then res := -1
      else i := (!i + 1) land mask
    done;
    !res

  let mem t k = find t k >= 0

  let rec replace t k v =
    if 2 * (t.len + 1) > t.mask + 1 then grow t;
    let keys = t.keys in
    let mask = t.mask in
    let i = ref (slot t k) in
    let placed = ref false in
    while not !placed do
      let kk = Bigarray.Array1.unsafe_get keys !i in
      if kk = k then begin
        Bigarray.Array1.unsafe_set t.vals !i v;
        placed := true
      end
      else if kk = -1 then begin
        Bigarray.Array1.unsafe_set keys !i k;
        Bigarray.Array1.unsafe_set t.vals !i v;
        t.len <- t.len + 1;
        placed := true
      end
      else i := (!i + 1) land mask
    done

  and grow t =
    let old_keys = t.keys and old_vals = t.vals in
    let old_cap = t.mask + 1 in
    let cap = 2 * old_cap in
    t.keys <- alloc cap;
    t.vals <- alloc cap;
    t.mask <- cap - 1;
    t.len <- 0;
    for i = 0 to old_cap - 1 do
      let k = Bigarray.Array1.unsafe_get old_keys i in
      if k >= 0 then replace t k (Bigarray.Array1.unsafe_get old_vals i)
    done

  let remove t k =
    let keys = t.keys and vals = t.vals in
    let mask = t.mask in
    let i = ref (slot t k) in
    let found = ref false and stop = ref false in
    while not !stop do
      let kk = Bigarray.Array1.unsafe_get keys !i in
      if kk = k then begin
        found := true;
        stop := true
      end
      else if kk = -1 then stop := true
      else i := (!i + 1) land mask
    done;
    if !found then begin
      (* Backward shift: walk the rest of the cluster and pull back any
         entry whose home slot lies at or before the hole (cyclically),
         then clear the final hole. *)
      let hole = ref !i in
      let j = ref ((!i + 1) land mask) in
      let continue_ = ref true in
      while !continue_ do
        let kk = Bigarray.Array1.unsafe_get keys !j in
        if kk = -1 then continue_ := false
        else begin
          let home = slot t kk in
          (* kk may move back to [hole] iff hole lies cyclically within
             [home, j). *)
          let between =
            if !hole <= !j then home <= !hole || home > !j
            else home <= !hole && home > !j
          in
          if between then begin
            Bigarray.Array1.unsafe_set keys !hole kk;
            Bigarray.Array1.unsafe_set vals !hole (Bigarray.Array1.unsafe_get vals !j);
            hole := !j
          end;
          j := (!j + 1) land mask
        end
      done;
      Bigarray.Array1.unsafe_set keys !hole (-1);
      t.len <- t.len - 1
    end

  let clear t =
    Bigarray.Array1.fill t.keys (-1);
    t.len <- 0
end
