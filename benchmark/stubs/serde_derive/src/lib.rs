//! Offline stand-in for `serde_derive`: both derives accept their input
//! (including `#[serde(...)]` attributes) and emit nothing. The benchmark
//! never serialises through serde; `mde-core`'s registry manifest is the
//! only user and is not on any measured path.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
