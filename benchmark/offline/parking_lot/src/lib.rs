//! Offline stand-in for `parking_lot`. `tracon-dcsim` declares the
//! dependency and uses nothing from it, so nothing is provided.
