//! Offline stand-in for `serde_derive`: both derives expand to nothing,
//! so a deriving type does not implement the stand-in traits. The
//! stand-in `serde_json` asks for no trait bound, so that still compiles.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
