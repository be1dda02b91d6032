let key ~round ~global ~views =
  let views = List.sort String.compare views in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "r=";
  Buffer.add_string buf (string_of_int round);
  Buffer.add_char buf '#';
  Buffer.add_string buf global;
  List.iter
    (fun v ->
      Buffer.add_char buf '\x01';
      Buffer.add_string buf v)
    views;
  Buffer.contents buf

let hash_hex s = Anon_kernel.Hashing.(to_hex (hash_string s))

module Digest = struct
  module H = Anon_kernel.Hashing.Fast

  (* Two independent FNV-style streams per view (the second offset basis
     is the standard one salted with a byte), combined across processes by
     wrapping addition. Addition is commutative, so the pair of sums
     identifies the view {e multiset} — the same quotient the sorted
     string key takes — and replacing one view is a subtract-and-add,
     which is what makes per-process updates O(changed processes). The
     native-int streams keep the per-byte fold allocation-free. *)
  let basis2 = H.byte H.init '\xa5'

  (* A dual-stream accumulator, fed piecewise so callers can hash a view
     without first materializing it as a string. Feeding the pieces of a
     view must produce the same bytes as rendering it — the differential
     suite pins [key = full_key] to hold that invariant. *)
  type stream = { mutable a : int; mutable b : int }

  let stream () = { a = H.init; b = basis2 }

  let feed_char st c =
    let c = Char.code c in
    st.a <- (st.a lxor c) * H.prime;
    st.b <- (st.b lxor c) * H.prime

  let feed_string st s =
    for i = 0 to String.length s - 1 do
      let c = Char.code (String.unsafe_get s i) in
      st.a <- (st.a lxor c) * H.prime;
      st.b <- (st.b lxor c) * H.prime
    done

  (* Decimal digits, matching [string_of_int] byte for byte. *)
  let rec feed_nat st n =
    if n >= 10 then feed_nat st (n / 10);
    feed_char st (Char.unsafe_chr (48 + (n mod 10)))

  let feed_int st n =
    if n < 0 then begin
      feed_char st '-';
      feed_nat st (-n)
    end
    else feed_nat st n

  let view_hash fill =
    let st = stream () in
    fill st;
    (st.a, st.b)

  (* One pass over the view feeding both streams. *)
  let view_hashes v = view_hash (fun st -> feed_string st v)

  type t = {
    versions : int array;  (* last refreshed Step_core version; -1 = never *)
    h1 : int array;
    h2 : int array;
    mutable sum1 : int;
    mutable sum2 : int;
  }

  let create ~n =
    {
      versions = Array.make n (-1);
      h1 = Array.make n 0;
      h2 = Array.make n 0;
      sum1 = 0;
      sum2 = 0;
    }

  let copy t =
    {
      versions = Array.copy t.versions;
      h1 = Array.copy t.h1;
      h2 = Array.copy t.h2;
      sum1 = t.sum1;
      sum2 = t.sum2;
    }

  let commit t ~slot ~version a b =
    t.sum1 <- t.sum1 - t.h1.(slot) + a;
    t.sum2 <- t.sum2 - t.h2.(slot) + b;
    t.h1.(slot) <- a;
    t.h2.(slot) <- b;
    t.versions.(slot) <- version

  let refresh t ~slot ~version render =
    if t.versions.(slot) <> version then begin
      let a, b = view_hashes (render ()) in
      commit t ~slot ~version a b
    end

  let render ~round ~global sum1 sum2 =
    let b = Buffer.create (String.length global + 24) in
    Buffer.add_string b (string_of_int round);
    Buffer.add_char b '#';
    Buffer.add_string b global;
    Buffer.add_char b '\x01';
    Buffer.add_int64_be b (Int64.of_int sum1);
    Buffer.add_int64_be b (Int64.of_int sum2);
    Buffer.contents b

  let key t ~round ~global = render ~round ~global t.sum1 t.sum2
  let key_of_sums = render

  let full_key ~round ~global ~views =
    let sum1 = ref 0 and sum2 = ref 0 in
    List.iter
      (fun v ->
        let a, b = view_hashes v in
        sum1 := !sum1 + a;
        sum2 := !sum2 + b)
      views;
    render ~round ~global !sum1 !sum2
end
